/**
 * @file
 * Shared dependence-graph layer. Both the compiler's global list
 * scheduler (IR level, Sec. IV-B) and the cycle simulator's event-driven
 * issue core (machine level, Sec. IV-D) need the same information — who
 * must run before whom, and which of those edges carry data latency —
 * and previously each rebuilt it from scratch with separate ad-hoc code.
 * A `DepGraph` is built once from an instruction stream and exposes
 * successor/predecessor edge ranges, indegrees for ready-list countdown,
 * and critical-path priorities.
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
 *  predecessor (in `preds`). */
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

    /**
     * Machine-level graph: register and streaming-FIFO true dependences
     * (each source operand resolved to its defining instruction), plus
     * anti-dependence edges from each register write to the previous
     * writer of the same register.
     */
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
    EdgeRange preds(size_t i) const
    {
        return {pedge_.data() + poff_[i], pedge_.data() + poff_[i + 1]};
    }

    /** Per-node indegree snapshot, for ready-list countdown. */
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
    // CSR form, valid after finalize().
    std::vector<uint32_t> soff_, poff_;
    std::vector<DepEdge> sedge_, pedge_;
    bool finalized_ = false;
};

} // namespace effact

#endif // EFFACT_SCHED_DEPGRAPH_H
