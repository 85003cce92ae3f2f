#include "compiler/pass.h"

#include <algorithm>
#include "common/logging.h"
#include "compiler/pass_manager.h"
#include "sched/depgraph.h"

#include <queue>

namespace effact {

namespace {

/** Legacy latency estimate (abstract lane-beats) used for
 *  `Scheduler::CriticalPath`. */
double
estLatency(const IrInst &inst)
{
    switch (inst.op) {
      case IrOp::Ntt:
      case IrOp::Intt:
        return 16.0; // fine-grained NTT: the long pole
      case IrOp::Load:
      case IrOp::Store:
        return 8.0;
      case IrOp::Mac:
        return 1.5;
      default:
        return 1.0;
    }
}

/**
 * `Scheduler::Latency` weights: per-instruction weight mirroring the
 * simulator's own occupancy model (`ResourceModel`), in modeled
 * cycles — element-wise ops occupy ceil(N / lanes), NTTs the
 * lane-normalized butterfly count N*log2(N)/2 / lanes, and memory ops
 * the HBM transfer time of one residue (8 bytes/coefficient), each
 * plus the fixed per-instruction startup overhead. At paper scale
 * (N=65536, 1024 lanes, 2.4 kB/cycle HBM) the ratio NTT : mem : EW is
 * roughly 528 : 234 : 80 — memory traffic is ~3x the static model's
 * weight relative to NTT, which is what re-ranks long load/store
 * chains above shallow arithmetic.
 */
double
modelLatency(const IrInst &inst, const CompilerOptions &opts,
             size_t degree)
{
    constexpr double kStartup = 16.0; // ResourceModel::kStartupCycles
    const double lanes = double(opts.lanes == 0 ? 1 : opts.lanes);
    const double n = double(degree == 0 ? 1 : degree);
    switch (inst.op) {
      case IrOp::Ntt:
      case IrOp::Intt: {
        double stages = 0.0;
        for (size_t d = 1; d < degree; d <<= 1)
            stages += 1.0;
        return kStartup + n * stages / 2.0 / lanes;
      }
      case IrOp::Load:
      case IrOp::Store: {
        const double bpc =
            opts.hbmBytesPerCycle > 0 ? opts.hbmBytesPerCycle : 1.0;
        return kStartup + n * 8.0 / bpc;
      }
      default:
        // Element-wise FU work (mul/add/sub/mac/auto/copy): one pass
        // over the residue at `lanes` coefficients per cycle.
        return kStartup + (n + lanes - 1.0) / lanes;
    }
}

} // namespace

std::vector<int>
runScheduler(const IrProgram &prog, AnalysisManager &analyses,
             const CompilerOptions &opts, StatSet &stats)
{
    const size_t n = prog.insts.size();
    // liveCount() walks every instruction; hoist it out of the scheduling
    // loop below or the pass goes quadratic on large programs (the 80k-inst
    // reduced bootstrapping took >10 s from this alone).
    const size_t live_count = prog.liveCount();
    std::vector<int> order;
    order.reserve(live_count);

    if (opts.scheduler == Scheduler::ProgramOrder) {
        for (size_t i = 0; i < n; ++i)
            if (!prog.insts[i].dead)
                order.push_back(static_cast<int>(i));
        stats.add("sched.enabled", 0);
        return order;
    }

    // The shared dependence-graph layer: SSA true dependences + the
    // alias pass's memory-ordering edges, the same graph family the
    // event-driven simulator consumes at the machine level. Requested
    // through the analysis manager, but built once per compile: every
    // caller passes a fresh manager, so outside tests it never hits.
    const DepGraph &graph = analyses.depGraph(prog, stats);
    std::vector<uint32_t> preds = graph.indegrees();

    // Critical-path priority: longest latency path to any sink (node
    // ids are topological in SSA construction order, which DepGraph
    // edges preserve). Dead instructions have no edges and latency 0.
    // The per-instruction weights come from the selected latency model;
    // only this vector differs between the two modes — the windowed
    // list-scheduling mechanics below are shared.
    const bool model_latency = opts.scheduler == Scheduler::Latency;
    std::vector<double> latency(n, 0.0);
    for (size_t i = 0; i < n; ++i)
        if (!prog.insts[i].dead)
            latency[i] = model_latency
                             ? modelLatency(prog.insts[i], opts,
                                            prog.degree)
                             : estLatency(prog.insts[i]);
    const std::vector<double> prio = graph.criticalPath(latency);

    // Windowed list scheduling: ready instructions ordered by priority,
    // but reordering is confined to a sliding window over the original
    // program order. Unbounded reordering would interleave every
    // independent chain and explode SRAM register pressure; the window
    // keeps live ranges close to the lowering's locality while still
    // hiding latency (the paper couples this with the OoO scoreboard).
    constexpr size_t kReorderWindow = 96;
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry> ready;
    std::vector<uint8_t> released(n, 0);
    size_t next_release = 0;
    size_t scheduled_floor = 0; // lowest unscheduled original index
    std::vector<uint8_t> done(n, 0);

    auto release = [&]() {
        // Admit instructions while the window [scheduled_floor,
        // next_release) stays within kReorderWindow live entries.
        while (next_release < n &&
               next_release < scheduled_floor + kReorderWindow) {
            size_t i = next_release++;
            if (!prog.insts[i].dead && preds[i] == 0 && !released[i]) {
                released[i] = 1;
                ready.emplace(prio[i], static_cast<int>(i));
            }
        }
    };
    release();

    while (order.size() < live_count) {
        if (ready.empty()) {
            // Everything released is blocked on un-released code: slide
            // the window forward.
            EFFACT_ASSERT(next_release < n, "scheduler deadlock");
            scheduled_floor = next_release;
            release();
            continue;
        }
        auto [p, idx] = ready.top();
        ready.pop();
        order.push_back(idx);
        done[idx] = 1;
        while (scheduled_floor < n &&
               (prog.insts[scheduled_floor].dead || done[scheduled_floor]))
            ++scheduled_floor;
        for (const DepEdge &e : graph.succs(static_cast<size_t>(idx))) {
            const int succ = e.other;
            if (--preds[succ] == 0 && !prog.insts[succ].dead &&
                static_cast<size_t>(succ) < next_release &&
                !released[succ]) {
                released[succ] = 1;
                ready.emplace(prio[succ], succ);
            }
        }
        release();
    }

    EFFACT_ASSERT(order.size() == live_count,
                  "scheduler dropped instructions (%zu of %zu)",
                  order.size(), live_count);
    stats.add("sched.enabled", 1);
    stats.add("sched.latencyModel", model_latency ? 1 : 0);
    stats.add("sched.criticalPath",
              n == 0 ? 0 : *std::max_element(prio.begin(), prio.end()));
    return order;
}

} // namespace effact
