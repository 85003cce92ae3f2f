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
    for (const Edge &e : raw_)
        ++soff_[static_cast<size_t>(e.from) + 1];
    for (size_t i = 0; i < n_; ++i)
        soff_[i + 1] += soff_[i];
    sedge_.resize(raw_.size());
    // Stable fill: per-node edge order is append order.
    std::vector<uint32_t> scur(soff_.begin(), soff_.end() - 1);
    for (const Edge &e : raw_)
        sedge_[scur[static_cast<size_t>(e.from)]++] = {e.to, e.kind};
    // The CSR arrays hold every edge; the graph lives through
    // scheduling, so drop the raw list.
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
    MachineDepResolver resolver(prog);
    DepEdge producers[MachineDepResolver::kMaxProducers];
    for (size_t i = 0; i < n; ++i) {
        const int count = resolver.resolve(i, producers);
        for (int k = 0; k < count; ++k)
            g.addEdge(producers[k].other, static_cast<int>(i),
                      producers[k].kind);
    }
    g.finalize();
    return g;
}

std::vector<uint32_t>
DepGraph::indegrees() const
{
    EFFACT_ASSERT(finalized_, "graph not finalized");
    std::vector<uint32_t> indeg(n_, 0);
    for (const DepEdge &e : sedge_)
        ++indeg[static_cast<size_t>(e.other)];
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

int
MachineDepResolver::resolve(size_t i, DepEdge (&out)[kMaxProducers])
{
    EFFACT_ASSERT(i == next_, "machine instruction %zu resolved out of "
                              "program order (expected %zu)", i, next_);
    ++next_;
    const MachInst &mi = prog_.insts[i];
    const Operand dest = mi.dest();
    if (dest.kind == OperandKind::Reg && dest.reg < 0)
        panicMalformedMachine(prog_, static_cast<int>(i),
                              "destination register id is negative");

    // A negative source register id converts to a key past any table.
    auto producerOf = [](const std::vector<int> &table, u64 key) {
        return key < table.size() ? table[static_cast<size_t>(key)] : -1;
    };
    auto slotOf = [](std::vector<int> &table, u64 key) -> int & {
        if (key >= table.size())
            table.resize(static_cast<size_t>(key) + 1, -1);
        return table[static_cast<size_t>(key)];
    };

    int count = 0;
    for (int s = MachInst::kSrc0; s < MachInst::kSlots; ++s) {
        const Operand src = mi.operand(s);
        int def = -1;
        if (src.kind == OperandKind::Reg)
            def = producerOf(last_writer_, static_cast<u64>(src.reg));
        else if (src.kind == OperandKind::Stream && !src.dram)
            def = producerOf(fifo_producer_, src.value);
        if (def >= 0)
            out[count++] = {def, DepKind::True};
    }
    if (!mi.writesDest())
        return count;
    if (dest.kind == OperandKind::Reg) {
        int &writer = slotOf(last_writer_, static_cast<u64>(dest.reg));
        if (writer >= 0)
            out[count++] = {writer, DepKind::Anti};
        writer = static_cast<int>(i);
    } else if (dest.kind == OperandKind::Stream && !dest.dram) {
        slotOf(fifo_producer_, dest.value) = static_cast<int>(i);
    }
    return count;
}

} // namespace effact
