/**
 * @file
 * Dependence layer. `DepGraph` is built once from an instruction stream
 * and exposes successor edge ranges, indegrees for ready-list countdown,
 * and critical-path priorities; the compiler's global list scheduler
 * (IR level, Sec. IV-B) runs on the IR graph. The machine dependence
 * rule is `MachineDepResolver`, applied in program order: the cycle
 * simulator (Sec. IV-D) resolves each instruction as it enters the
 * scoreboard window, and `DepGraph::fromMachine` collects the same
 * edges into a whole-program graph.
 */
#ifndef EFFACT_SCHED_DEPGRAPH_H
#define EFFACT_SCHED_DEPGRAPH_H

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/ir.h"
#include "isa/isa.h"

namespace effact {

/** Dependence-edge kinds. */
enum class DepKind : uint8_t {
    True,     ///< RAW: consumer becomes data-ready at the producer's finish
    Anti,     ///< WAW on a register: orders issue, carries no data latency
    MemAlias, ///< may-alias memory ordering (from alias analysis)
};

/** One directed edge; `other` is the successor (in `succs`) or the
 *  producer (from `MachineDepResolver`). */
struct DepEdge
{
    int other;
    DepKind kind;
};

/**
 * Dependence graph over an instruction stream. Node ids are instruction
 * indices and edges always point forward (`from < to`), so reverse node
 * order is a topological order — `criticalPath` relies on this.
 *
 * Edges are appended with `addEdge` and compacted into CSR form by
 * `finalize()`, which then releases the appended list; the factory
 * builders return finalized graphs. Duplicate edges are kept (an
 * instruction reading the same value through both source operands
 * counts it twice in the indegree and is woken twice, which keeps the
 * countdown consistent).
 */
class DepGraph
{
  public:
    /** A contiguous edge range (CSR slice), iterable by range-for. */
    struct EdgeRange
    {
        const DepEdge *first;
        const DepEdge *last;
        const DepEdge *begin() const { return first; }
        const DepEdge *end() const { return last; }
        size_t size() const { return static_cast<size_t>(last - first); }
    };

    DepGraph() = default;
    explicit DepGraph(size_t n) : n_(n) {}

    /** One raw `(from, to, kind)` edge, as appended before `finalize`. */
    struct Edge
    {
        int from;
        int to;
        DepKind kind;
    };

    /**
     * IR-level graph: SSA true dependences from the operand ids of every
     * live instruction, plus the memory-ordering edges produced by
     * `runAliasAnalysis`.
     */
    static DepGraph fromIr(const IrProgram &prog,
                           const std::vector<std::pair<int, int>> &mem_deps);

    /** Machine-level graph: every `MachineDepResolver` edge. */
    static DepGraph fromMachine(const MachineProgram &prog);

    /** Appends one edge; `from` must precede `to` in the stream. */
    void addEdge(int from, int to, DepKind kind);

    /** Compacts appended edges into CSR form; call before queries. */
    void finalize();

    size_t size() const { return n_; }
    /** Edges appended so far; after `finalize()`, the CSR edge count. */
    size_t edgeCount() const
    {
        return finalized_ ? sedge_.size() : raw_.size();
    }

    EdgeRange succs(size_t i) const
    {
        return {sedge_.data() + soff_[i], sedge_.data() + soff_[i + 1]};
    }
    /** Per-node indegree, counted over the successor edges, for
     *  ready-list countdown. */
    std::vector<uint32_t> indegrees() const;

    /**
     * Longest-latency path from each node to any sink (the classic
     * critical-path list-scheduling priority): `prio[i] = latency[i] +
     * max(prio[succ])`.
     */
    std::vector<double>
    criticalPath(const std::vector<double> &node_latency) const;

  private:
    size_t n_ = 0;
    std::vector<Edge> raw_; // appended edges; released by finalize()
    // Successor CSR, valid after finalize().
    std::vector<uint32_t> soff_;
    std::vector<DepEdge> sedge_;
    bool finalized_ = false;
};

/**
 * The machine dependence rule. Each source operand depends (`True`) on
 * the last instruction that wrote its register or produced its on-chip
 * FIFO token; each register write depends (`Anti`) on the previous
 * writer of the same register. A source with no producer (a live-in
 * register, an HBM stream, an immediate) has no edge. Instructions are
 * resolved one at a time in program order, so a consumer sees exactly
 * the producers that precede it.
 */
class MachineDepResolver
{
  public:
    /** Most producers one instruction has: three sources and the
     *  previous writer of its destination register. */
    static constexpr int kMaxProducers = 4;

    explicit MachineDepResolver(const MachineProgram &prog) : prog_(prog) {}

    /**
     * Resolves instruction `i`, which must be the next in program order:
     * writes its `(producer, kind)` pairs to `out` (sources in operand
     * order, then the previous writer of the destination register),
     * records `i` as the newest writer of its destination, and returns
     * the pair count. Panics with the verifier's diagnostic on a
     * negative destination register id.
     */
    int resolve(size_t i, DepEdge (&out)[kMaxProducers]);

  private:
    const MachineProgram &prog_;
    size_t next_ = 0;
    // Direct-indexed producer tables: register ids are small consecutive
    // ints from the allocator and FIFO tokens are IR value ids. Both
    // grow on the first write past their end.
    std::vector<int> last_writer_;   // register -> inst
    std::vector<int> fifo_producer_; // token -> inst
};

} // namespace effact

#endif // EFFACT_SCHED_DEPGRAPH_H
