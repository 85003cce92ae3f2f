#include "sim/machine.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "common/logging.h"
#include "sched/depgraph.h"
#include "sim/resources.h"
#include "verify/verify.h"

namespace effact {

namespace {

SimReport
makeReport(const ResourceModel &res, const HardwareConfig &cfg, size_t n,
           double t_end)
{
    SimReport r;
    r.cycles = t_end;
    r.timeMs = t_end / (cfg.freqGhz * 1e9) * 1e3;
    r.dramBytes = res.dramBytes();
    r.instructions = n;
    if (t_end > 0) {
        r.dramUtil = res.hbmBusy() / t_end;
        r.nttUtil = res.busy(FU_NTT) / (t_end * double(cfg.nttUnits));
        r.mulAddUtil = (res.busy(FU_MUL) + res.busy(FU_ADD)) /
                       (t_end * double(cfg.mulUnits + cfg.addUnits));
        r.autoUtil = res.busy(FU_AUTO) / (t_end * double(cfg.autoUnits));
    }
    r.stats.set("cycles", t_end);
    r.stats.set("dramBytes", res.dramBytes());
    r.stats.set("nttBusy", res.busy(FU_NTT));
    r.stats.set("mulBusy", res.busy(FU_MUL));
    r.stats.set("addBusy", res.busy(FU_ADD));
    r.stats.set("autoBusy", res.busy(FU_AUTO));
    return r;
}

/**
 * Ready instructions, partitioned by the resource "group" that decides
 * their issue start. Every member of a group shares one state-dependent
 * floor F (the group's resource-free time), so a ready instruction with
 * data-ready time d starts at max(d, F):
 *
 *  - members with d <= F all tie at F — the earliest index wins, so
 *    they sit in an index-ordered min-heap (`tied`);
 *  - members with d > F start at d — they sit in a (d, index) min-heap
 *    (`later`).
 *
 * Resource free times only move forward, so F is monotone and members
 * migrate from `later` to `tied` at most once. The group's best
 * candidate is a peek at two heap tops; the global best is the
 * lexicographic (start, index) minimum over the groups, which is
 * exactly the legacy rescan loop's "earliest feasible start, earliest
 * index on ties" policy.
 */
class ReadyGroups
{
  public:
    // One group per FU class, one per FU class with a streaming fill
    // (floor also covers the HBM channel), one for steerable MACs
    // (floor = min of NTT/MUL), its streaming variant, and one for pure
    // memory ops (floor = HBM channel only).
    enum : int {
        kPlain0 = 0,          // + FuClass
        kFill0 = FU_CLASSES,  // + FuClass
        kMac = 2 * FU_CLASSES,
        kFillMac,
        kMem,
        kGroups,
    };

    explicit ReadyGroups(const ResourceModel &res) : res_(res)
    {
        for (int grp = 0; grp < kGroups; ++grp)
            floor_[grp] = floorOf(grp);
    }

    static int groupOf(const InstShape &shape, bool ntt_mac_reuse)
    {
        if (shape.fu_class < 0)
            return kMem;
        if (shape.mac && ntt_mac_reuse)
            return shape.stream_fill ? kFillMac : kMac;
        return (shape.stream_fill ? kFill0 : kPlain0) + shape.fu_class;
    }

    void admit(int grp, int idx, double data_ready)
    {
        if (data_ready <= floor_[grp])
            tied_[grp].push(idx);
        else
            later_[grp].emplace(data_ready, idx);
    }

    /**
     * Advances the floors of the groups a commit can have moved (the
     * committed FU class and, if the HBM channel advanced, every group
     * whose floor covers it) and migrates members whose data-ready time
     * the floor has caught up with.
     *
     * Batched per commit: every floor is a max/min over resource free
     * times, the free times only move forward, and a commit moves only
     * its own FU class and (maybe) the HBM channel — so each moved
     * primitive is read once and every dependent group's floor is just
     * `max(stored floor, moved primitive)`. The per-touched-group
     * `floorOf` re-derivation (which re-read the unmoved components,
     * `FU_CLASSES + 2` HBM reads on a streaming commit) is gone; the
     * stored floors stay exactly `floorOf` by induction from the
     * constructor.
     */
    void refresh(const IssuePlan &committed)
    {
        if (committed.fu_class >= 0) {
            const double fu = res_.fuFreeMin(committed.fu_class);
            raiseTo(kPlain0 + committed.fu_class, fu);
            raiseTo(kFill0 + committed.fu_class, fu);
            if (committed.fu_class == FU_NTT ||
                committed.fu_class == FU_MUL) {
                const double mac = std::min(res_.fuFreeMin(FU_NTT),
                                            res_.fuFreeMin(FU_MUL));
                raiseTo(kMac, mac);
                raiseTo(kFillMac, mac);
            }
        }
        if (committed.uses_dram) {
            const double hbm = res_.hbmFree();
            raiseTo(kMem, hbm);
            for (int cls = 0; cls < FU_CLASSES; ++cls)
                raiseTo(kFill0 + cls, hbm);
            raiseTo(kFillMac, hbm);
        }
    }

    /** Lexicographic (start, index) minimum over all groups; returns
     *  the instruction index and its start, or -1 if nothing is ready. */
    int best(double &start_out) const
    {
        int best_idx = -1;
        double best_start = 0.0;
        for (int grp = 0; grp < kGroups; ++grp) {
            int idx;
            double start;
            // Within a group the tied heap dominates: `later` members
            // start strictly after the floor.
            if (!tied_[grp].empty()) {
                idx = tied_[grp].top();
                start = floor_[grp];
            } else if (!later_[grp].empty()) {
                idx = later_[grp].top().second;
                start = later_[grp].top().first;
            } else {
                continue;
            }
            if (best_idx < 0 || start < best_start ||
                (start == best_start && idx < best_idx)) {
                best_idx = idx;
                best_start = start;
            }
        }
        start_out = best_start;
        return best_idx;
    }

    /** Removes `idx` (the current best of group `grp`). */
    void take(int grp, int idx)
    {
        if (!tied_[grp].empty() && tied_[grp].top() == idx) {
            tied_[grp].pop();
            return;
        }
        EFFACT_ASSERT(!later_[grp].empty() &&
                          later_[grp].top().second == idx,
                      "issued instruction is not its group's best");
        later_[grp].pop();
    }

  private:
    /** Raises group `grp`'s floor to (at least) `f` and migrates the
     *  members the new floor has caught up with. No-op when the floor
     *  already covers `f` (the unmoved-component case). */
    void raiseTo(int grp, double f)
    {
        if (f <= floor_[grp])
            return;
        floor_[grp] = f;
        auto &later = later_[grp];
        while (!later.empty() && later.top().first <= f) {
            tied_[grp].push(later.top().second);
            later.pop();
        }
    }

    double floorOf(int grp) const
    {
        if (grp == kMem)
            return res_.hbmFree();
        if (grp == kMac)
            return std::min(res_.fuFreeMin(FU_NTT),
                            res_.fuFreeMin(FU_MUL));
        if (grp == kFillMac)
            return std::max(std::min(res_.fuFreeMin(FU_NTT),
                                     res_.fuFreeMin(FU_MUL)),
                            res_.hbmFree());
        if (grp >= kFill0)
            return std::max(res_.fuFreeMin(grp - kFill0),
                            res_.hbmFree());
        return res_.fuFreeMin(grp);
    }

    using IndexHeap =
        std::priority_queue<int, std::vector<int>, std::greater<int>>;
    using TimedHeap =
        std::priority_queue<std::pair<double, int>,
                            std::vector<std::pair<double, int>>,
                            std::greater<std::pair<double, int>>>;

    const ResourceModel &res_;
    double floor_[kGroups];
    IndexHeap tied_[kGroups];
    TimedHeap later_[kGroups];
};

} // namespace

/**
 * Event-driven issue core. Readiness is tracked with per-instruction
 * indegree counters over the machine-level dependence graph: when an
 * instruction issues, its wake-up list (graph successors) is walked,
 * true-dependence successors inherit its finish time as their data-ready
 * time, and instructions whose last predecessor issued become ready.
 * The OoO scoreboard window is a boundary that slides over the unissued
 * instructions (a doubly-linked list, so issued instructions are never
 * re-scanned); only ready instructions inside the window are issue
 * candidates, held in `ReadyGroups` priority queues keyed by earliest
 * feasible start. Each round is a peek across the group heads, one
 * `ResourceModel::plan` for the winner, and O(log n) heap maintenance —
 * O((n + e) log n) overall instead of the legacy loop's O(n * window)
 * rescans over an ever-wider issued gap (that loop survives as the
 * test-side reference simulator).
 */
SimReport
Simulator::run(const MachineProgram &prog) const
{
    const size_t n = prog.insts.size();
    ResourceModel res(cfg_, prog.residueBytes);
    if (n == 0)
        return makeReport(res, cfg_, 0, 0.0);
    res.bind(prog);
    const DepGraph graph = DepGraph::fromMachine(prog);

    std::vector<uint32_t> indeg = graph.indegrees();
    std::vector<double> data_ready(n, 0.0);
    std::vector<uint8_t> ready(n, 0);
    std::vector<int> group(n);
    for (size_t i = 0; i < n; ++i)
        group[i] = ReadyGroups::groupOf(res.shape(i), cfg_.nttMacReuse);

    // Unissued instructions in program order; issue unlinks in O(1).
    std::vector<int> nxt(n), prv(n);
    for (size_t i = 0; i < n; ++i) {
        nxt[i] = static_cast<int>(i) + 1;
        prv[i] = static_cast<int>(i) - 1;
    }

    const size_t window = std::max<size_t>(cfg_.issueWindow, 1);
    // Index of the last unissued instruction inside the scoreboard
    // window (the window-th unissued in program order); `n` once the
    // window covers every remaining instruction.
    size_t bound = window < n ? window - 1 : n;

    ReadyGroups groups(res);
    for (size_t i = 0; i < n; ++i) {
        if (indeg[i] == 0) {
            ready[i] = 1;
            if (i <= bound)
                groups.admit(group[i], static_cast<int>(i), 0.0);
        }
    }

    double t_end = 0.0;
    for (size_t issued = 0; issued < n; ++issued) {
        double best_start = 0.0;
        const int best = groups.best(best_start);
        if (best < 0)
            panicMalformedMachine(prog, -1,
                                  "deadlock: no issuable instruction");
        groups.take(group[best], best);

        const IssuePlan plan =
            res.plan(static_cast<size_t>(best), data_ready[best]);
        EFFACT_ASSERT(plan.start == best_start,
                      "ready-group floor diverged from the plan");

        if (prv[best] >= 0)
            nxt[prv[best]] = nxt[best];
        if (nxt[best] < static_cast<int>(n))
            prv[nxt[best]] = prv[best];
        // One in-window instruction issued: slide the boundary to the
        // next unissued instruction (`best`'s own links are intact, so
        // this works when best == bound too) and admit it if ready.
        if (bound < n) {
            bound = static_cast<size_t>(nxt[bound]);
            if (bound < n && ready[bound])
                groups.admit(group[bound], static_cast<int>(bound),
                             data_ready[bound]);
        }

        const double finish = res.commit(static_cast<size_t>(best), plan);
        t_end = std::max(t_end, finish);
        groups.refresh(plan);

        for (const DepEdge &e : graph.succs(static_cast<size_t>(best))) {
            const size_t s = static_cast<size_t>(e.other);
            if (e.kind == DepKind::True)
                data_ready[s] = std::max(data_ready[s], finish);
            if (--indeg[s] == 0) {
                ready[s] = 1;
                if (s <= bound)
                    groups.admit(group[s], e.other, data_ready[s]);
            }
        }
    }

    return makeReport(res, cfg_, n, t_end);
}

} // namespace effact
