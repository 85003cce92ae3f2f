#include "sched/depgraph.h"

#include <algorithm>

#include "common/logging.h"
#include "verify/verify.h"

namespace effact {

void
DepGraph::addEdge(int from, int to, DepKind kind)
{
    EFFACT_ASSERT(from >= 0 && to >= 0 && from < to &&
                      static_cast<size_t>(to) < n_ && !finalized_,
                  "bad dependence edge %d -> %d", from, to);
    raw_.push_back({from, to, kind});
}

void
DepGraph::finalize()
{
    EFFACT_ASSERT(!finalized_, "graph already finalized");
    soff_.assign(n_ + 1, 0);
    poff_.assign(n_ + 1, 0);
    for (const Edge &e : raw_) {
        ++soff_[static_cast<size_t>(e.from) + 1];
        ++poff_[static_cast<size_t>(e.to) + 1];
    }
    for (size_t i = 0; i < n_; ++i) {
        soff_[i + 1] += soff_[i];
        poff_[i + 1] += poff_[i];
    }
    sedge_.resize(raw_.size());
    pedge_.resize(raw_.size());
    // Stable fill: per-node edge order is append order.
    std::vector<uint32_t> scur(soff_.begin(), soff_.end() - 1);
    std::vector<uint32_t> pcur(poff_.begin(), poff_.end() - 1);
    for (const Edge &e : raw_) {
        sedge_[scur[static_cast<size_t>(e.from)]++] = {e.to, e.kind};
        pedge_[pcur[static_cast<size_t>(e.to)]++] = {e.from, e.kind};
    }
    // The CSR arrays hold every edge, once per direction; the graph lives
    // through scheduling and simulation, so drop the raw list.
    std::vector<Edge>().swap(raw_);
    finalized_ = true;
}

DepGraph
DepGraph::fromIr(const IrProgram &prog,
                 const std::vector<std::pair<int, int>> &mem_deps)
{
    DepGraph g(prog.insts.size());
    g.raw_.reserve(prog.insts.size() * 2 + mem_deps.size());
    for (size_t i = 0; i < prog.insts.size(); ++i) {
        const IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int operand : inst.operands())
            if (operand >= 0)
                g.addEdge(operand, static_cast<int>(i), DepKind::True);
    }
    for (auto [from, to] : mem_deps)
        g.addEdge(from, to, DepKind::MemAlias);
    g.finalize();
    return g;
}

DepGraph
DepGraph::fromMachine(const MachineProgram &prog)
{
    const size_t n = prog.insts.size();
    DepGraph g(n);
    g.raw_.reserve(n * 2);

    // Dense producer maps: register ids are small consecutive ints from
    // the allocator and FIFO tokens are IR value ids, so direct-indexed
    // tables beat hash maps on the hot build path.
    u64 max_reg = 0, max_tok = 0;
    for (size_t i = 0; i < n; ++i) {
        const MachInst &mi = prog.insts[i];
        if (mi.dest.kind == OperandKind::Reg) {
            if (mi.dest.reg < 0)
                panicMalformedMachine(prog, static_cast<int>(i),
                                      "destination register id is "
                                      "negative");
            max_reg = std::max<u64>(max_reg, static_cast<u64>(mi.dest.reg));
        }
        if (mi.dest.kind == OperandKind::Stream && !mi.dest.dram)
            max_tok = std::max<u64>(max_tok, mi.dest.value);
    }
    std::vector<int> last_writer(max_reg + 1, -1);   // register -> inst
    std::vector<int> fifo_producer(max_tok + 1, -1); // token -> inst

    for (size_t i = 0; i < n; ++i) {
        const MachInst &mi = prog.insts[i];
        auto resolveSrc = [&](const Operand &o) {
            if (o.kind == OperandKind::Reg &&
                static_cast<u64>(o.reg) <= max_reg)
                return last_writer[static_cast<size_t>(o.reg)];
            if (o.kind == OperandKind::Stream && !o.dram &&
                o.value <= max_tok)
                return fifo_producer[static_cast<size_t>(o.value)];
            return -1;
        };
        // A source with no resolvable producer (a live-in register, an
        // HBM address, an immediate) simply has no edge.
        for (const Operand *src : {&mi.src0, &mi.src1, &mi.src2}) {
            int def = resolveSrc(*src);
            if (def >= 0)
                g.addEdge(def, static_cast<int>(i), DepKind::True);
        }
        if (mi.writesDest()) {
            if (mi.dest.kind == OperandKind::Reg) {
                int prev = last_writer[static_cast<size_t>(mi.dest.reg)];
                if (prev >= 0)
                    g.addEdge(prev, static_cast<int>(i), DepKind::Anti);
                last_writer[static_cast<size_t>(mi.dest.reg)] =
                    static_cast<int>(i);
            } else if (mi.dest.kind == OperandKind::Stream &&
                       !mi.dest.dram) {
                fifo_producer[static_cast<size_t>(mi.dest.value)] =
                    static_cast<int>(i);
            }
        }
    }
    g.finalize();
    return g;
}

std::vector<uint32_t>
DepGraph::indegrees() const
{
    EFFACT_ASSERT(finalized_, "graph not finalized");
    std::vector<uint32_t> indeg(n_, 0);
    for (size_t i = 0; i < n_; ++i)
        indeg[i] = poff_[i + 1] - poff_[i];
    return indeg;
}

std::vector<double>
DepGraph::criticalPath(const std::vector<double> &node_latency) const
{
    EFFACT_ASSERT(finalized_ && node_latency.size() == n_,
                  "graph not finalized or latency table size mismatch");
    std::vector<double> prio(n_, 0.0);
    for (size_t i = n_; i-- > 0;) {
        double best = 0.0;
        for (const DepEdge &e : succs(i))
            best = std::max(best, prio[static_cast<size_t>(e.other)]);
        prio[i] = best + node_latency[i];
    }
    return prio;
}

} // namespace effact
