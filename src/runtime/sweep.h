/**
 * @file
 * Batch execution: compile and simulate N (workload, hardware, compiler
 * options) jobs, concurrently, and return their results in job order.
 * A parallel batch runs on a private `ThreadPool` of
 * `min(threads, jobs)` workers, one task per job, so at most `threads`
 * jobs run at once. Cross-job reuse is the (opt-in) shared
 * `CompileCache`: keyed on program *content* plus the compiler preset,
 * it deduplicates the hardware-independent middle end across jobs, so
 * a preset x hardware grid optimizes each (workload, preset) once. Each
 * job is pure given its inputs, and cache entries are immutable
 * single-flight snapshots, so results — simulated cycles, machine-code
 * fingerprints, compiler and simulator stats — are byte-identical at
 * any thread count and any hit pattern.
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

/**
 * Compiles and simulates every job and returns the results in job
 * order. `threads <= 1` is the serial path: jobs run in order on the
 * calling thread with no pool. Otherwise the calling thread waits while
 * a private pool of `min(threads, jobs.size())` workers runs one task
 * per job.
 *
 * With a shared `cache` every job's compile consults it, so the
 * hardware-independent middle end runs once per (workload, preset) key
 * instead of once per job. The caller owns the cache; it may be shared
 * across calls, and its `statsSnapshot()` holds the cumulative hit
 * accounting.
 *
 * Each result's `jobStats` also carries `job.ir.ms`, the wall clock of
 * the job's workload build.
 */
std::vector<PlatformResult> runSweep(const std::vector<SweepJob> &jobs,
                                     size_t threads,
                                     CompileCache *cache = nullptr);

} // namespace effact

#endif // EFFACT_RUNTIME_SWEEP_H
