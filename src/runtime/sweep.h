/**
 * @file
 * Batch-execution engine: submit N (workload, hardware, compiler
 * options) jobs, compile and simulate them concurrently, and collect
 * results in deterministic submission order. A parallel batch runs on
 * a private `ThreadPool` of `min(threads, jobs)` workers, one task per
 * job, so at most `threads` jobs run at once. Cross-job reuse is the
 * (opt-in) shared `CompileCache`: keyed on program *content* plus the
 * compiler preset, it deduplicates the hardware-independent middle end
 * across jobs, so a preset x hardware grid optimizes each (workload,
 * preset) once. Each job is pure given its inputs, and cache entries
 * are immutable single-flight snapshots, so results — simulated
 * cycles, machine-code fingerprints, stat aggregates — are
 * byte-identical at any thread count and any hit pattern.
 * `threads = 1` is the serial path: jobs run in submission order on
 * the calling thread with no pool.
 */
#ifndef EFFACT_RUNTIME_SWEEP_H
#define EFFACT_RUNTIME_SWEEP_H

#include <functional>
#include <string>
#include <vector>

#include "compiler/compile_cache.h"
#include "platform/platform.h"
#include "runtime/thread_pool.h"

namespace effact {

/** One batch job: how to build the workload and where to run it. */
struct SweepJob
{
    std::string name;
    /** Workload factory, invoked on the executing worker (program
     *  construction is part of the parallel work). Must be safe to call
     *  from any thread — build the IR inside, don't capture shared
     *  mutable state. */
    std::function<Workload()> build;
    HardwareConfig hw;
    CompilerOptions copts;
};

/** One job's outcome, delivered in submission order. */
struct SweepResult
{
    std::string name;
    size_t jobIndex = 0;
    PlatformResult platform;
};

/** Engine knobs. */
struct SweepOptions
{
    /** Most jobs run at once; 1 = serial on the calling thread (no
     *  pool). */
    size_t threads = 1;
    /**
     * Opt-in shared compile cache: when set, every job's compile
     * consults it, so the hardware-independent middle end runs once per
     * (workload, preset) key instead of once per job. The store is
     * single-flight behind one mutex. Results are byte-identical to
     * an uncached run at any thread count and any hit pattern. The
     * caller owns the cache (it may outlive the engine and be shared
     * across engines); its cumulative `cache.*` stats are merged into
     * the engine's aggregates after `runAll()`.
     */
    CompileCache *compileCache = nullptr;
    /**
     * Batch-wide verification override: -1 (default) leaves every job's
     * `CompilerOptions::verifyLevel` alone; >= 0 forces that level onto
     * all jobs, so a harness can run a whole sweep fully checkpointed
     * (or force it off in a Release perf lane) without editing each
     * job's options.
     */
    int verifyLevel = -1;
};

/**
 * Compile-and-simulate batch driver. `submit()` jobs, then `runAll()`
 * once; results and per-stat aggregates are then available. Aggregates
 * are computed from the ordered results on the calling thread, so they
 * are independent of worker scheduling.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts = {}) : opts_(opts) {}

    /** Enqueues a job; returns its index (= result position). */
    size_t submit(SweepJob job);

    /** Convenience overload building the `SweepJob` in place. */
    size_t submit(std::string name, std::function<Workload()> build,
                  HardwareConfig hw, CompilerOptions copts);

    /**
     * Runs every submitted job (concurrently when `threads > 1`) and
     * returns the results in submission order. One-shot per engine.
     */
    const std::vector<SweepResult> &runAll();

    /** Results of `runAll()`, in submission order. */
    const std::vector<SweepResult> &results() const { return results_; }

    /**
     * Per-statistic aggregates over all jobs, valid after `runAll()`:
     * for every key `k` in a job's compiler stats (prefixed
     * `compile.`), simulator stats (`sim.`), per-stage wall-clock stats
     * (already prefixed `job.`) and benchmark-level metrics
     * (`platform.`), the batch records `<k>.sum`, `<k>.min`, `<k>.max`,
     * `<k>.mean` and `<k>.count` (jobs reporting the key), plus
     * `sweep.jobs` and `sweep.threads`.
     */
    const StatSet &aggregates() const { return aggregates_; }

    size_t jobCount() const { return jobs_.size(); }

    /** Requested worker count (the `SweepOptions` knob, floored at 1) */
    size_t threads() const { return opts_.threads == 0 ? 1 : opts_.threads; }

    /** Workers actually used by `runAll()` — the request clamped to the
     *  job count (1 before the run). This is what `sweep.threads`
     *  reports, so per-worker throughput math has the right
     *  denominator. */
    size_t workersUsed() const { return workers_used_; }

  private:
    SweepOptions opts_;
    std::vector<SweepJob> jobs_;
    std::vector<SweepResult> results_;
    StatSet aggregates_;
    size_t workers_used_ = 1;
    bool ran_ = false;
};

} // namespace effact

#endif // EFFACT_RUNTIME_SWEEP_H
