/**
 * @file
 * Pass-manager layer of the compiler backend (Sec. IV-B): an
 * `AnalysisManager` that caches derived analyses (alias-dependence
 * edges, the IR-level `sched::DepGraph`) keyed on
 * `IrProgram::version()`, and a `PassManager` that runs a declarative
 * pipeline of registry passes to a bounded fixed point instead of one
 * hardcoded sweep.
 *
 * Pipelines are named by spec strings (`"copyprop,constprop,pre,
 * peephole"`), the only vocabulary for selecting passes: the Fig. 11
 * ablation presets, `CompilerOptions::pipeline`, the service protocol
 * and the benches all use it. The registry behind it is one
 * `{name, function}` table in `pass_manager.cc`.
 */
#ifndef EFFACT_COMPILER_PASS_MANAGER_H
#define EFFACT_COMPILER_PASS_MANAGER_H

#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "compiler/pass.h"
#include "ir/ir.h"
#include "sched/depgraph.h"

namespace effact {

/**
 * Caches analyses derived from an `IrProgram`, keyed on the program's
 * mutation counter: a request at an unchanged `version()` returns the
 * cached result, a request after any mutation rebuilds. Build and hit
 * counts are recorded in the caller's stats (`analysis.aliasBuilds`,
 * `analysis.depgraphBuilds`, `analysis.cacheHits`), which is how tests
 * pin "the DepGraph is built at most once per compile".
 */
class AnalysisManager
{
  public:
    /** Alias-dependence (memory ordering) edges from `runAliasAnalysis`. */
    const std::vector<std::pair<int, int>> &
    aliasEdges(const IrProgram &prog, StatSet &stats);

    /** IR-level dependence graph: SSA true edges + the alias edges
     *  (built through `aliasEdges`, so that result is cached too). */
    const DepGraph &depGraph(const IrProgram &prog, StatSet &stats);

    /** Drops every cached analysis (version keying normally suffices). */
    void invalidateAll();

  private:
    static constexpr uint64_t kNoVersion = ~uint64_t(0);

    // Keys are (IrProgram::uid, version): version counters of two
    // independently built programs can collide and addresses can be
    // reused by successive stack-locals, so the process-unique program
    // id matters when one manager serves a re-compilation sweep.
    uint64_t aliasUid_ = kNoVersion;
    uint64_t aliasVersion_ = kNoVersion;
    std::vector<std::pair<int, int>> aliasEdges_;
    uint64_t graphUid_ = kNoVersion;
    uint64_t graphVersion_ = kNoVersion;
    DepGraph graph_;
};

/**
 * One pass-registry row: the spec token and the pass function. A pass
 * rewrites `prog` in place, records its stats under its own namespace
 * and returns its rewrite count (0 = unchanged).
 *
 * Contract: one call reaches the pass's own fixed point — re-running
 * immediately, with no intervening IR change, finds nothing (the stock
 * passes iterate forward through resolved operands, so a single call
 * is transitive). The manager relies on this to skip a pass whose
 * input version is unchanged since its last run.
 */
struct PassEntry
{
    const char *name;
    size_t (*run)(IrProgram &prog, StatSet &stats);
};

/**
 * Runs an ordered pipeline of registry passes to a bounded fixed point:
 * the sequence repeats until one full sweep reports no change
 * (converged) or `maxIterations()` sweeps have run. The manager bumps
 * `prog.version()` exactly when a pass returns a non-zero rewrite
 * count, which keeps cached analyses sound. Per-pass wall-clock and
 * instruction-delta statistics are recorded under namespaced keys
 * (`pass.<name>.ms`, `pass.<name>.removed`, `pass.<name>.changed`),
 * plus `pipeline.iterations` / `pipeline.converged` for the loop.
 */
class PassManager
{
  public:
    /**
     * Builds a pipeline from a spec string: comma-separated pass names,
     * whitespace around names ignored, empty spec = empty pipeline.
     * Unknown names are a user error (`fatal`); use `parsePipelineSpec`
     * first when the spec comes from untrusted input.
     */
    static PassManager fromSpec(const std::string &spec);

    size_t passCount() const { return passes_.size(); }

    /** Round-trips the pipeline back to its spec string. */
    std::string spec() const;

    /** Fixed-point sweep bound (default 64, matching
     *  `CompilerOptions::pipelineMaxIterations`). */
    void setMaxIterations(size_t n) { maxIterations_ = n; }
    size_t maxIterations() const { return maxIterations_; }

    /**
     * When > 0, the IR verifier runs after every pass that reported a
     * change and the manager panics (naming the pass and the violated
     * invariant) on the first malformed program. Checkpoint cost is
     * recorded under `verify.checks` / `verify.ms`.
     */
    void setVerifyLevel(int level) { verifyLevel_ = level; }
    int verifyLevel() const { return verifyLevel_; }

    /**
     * Runs the pipeline on `prog` to a fixed point; returns the number
     * of sweeps executed. `converged()` reports whether the last sweep
     * was change-free (always true for an empty pipeline).
     */
    size_t run(IrProgram &prog, StatSet &stats);

    bool converged() const { return converged_; }

  private:
    std::vector<PassEntry> passes_;
    size_t maxIterations_ = 64;
    int verifyLevel_ = 0;
    bool converged_ = true;
};

/** Registry names in canonical pipeline order. */
const std::vector<std::string> &knownPassNames();

/**
 * Parses a pipeline spec into pass names. Returns false on an unknown
 * or empty element and, when `error` is non-null, stores a message
 * naming the offending token; `names` then holds the tokens parsed so
 * far. A valid empty spec yields an empty name list.
 */
bool parsePipelineSpec(const std::string &spec,
                       std::vector<std::string> *names,
                       std::string *error = nullptr);

/** `opts.pipeline`. Kept only because the repository benchmark calls
 *  it; no library code does. */
std::string pipelineSpecFromOptions(const CompilerOptions &opts);

} // namespace effact

#endif // EFFACT_COMPILER_PASS_MANAGER_H
