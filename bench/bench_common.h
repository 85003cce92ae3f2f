/**
 * @file
 * Shared helpers for the table/figure benchmark harnesses.
 */
#ifndef EFFACT_BENCH_COMMON_H
#define EFFACT_BENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/table.h"
#include "platform/platform.h"
#include "runtime/sweep.h"

namespace effact {

/**
 * Whether the grid benches should share a `CompileCache` across their
 * sweep jobs. On by default; `EFFACT_COMPILE_CACHE=0` disables it,
 * which is how the byte-identical-stdout claim is checked
 * (`diff <(bench) <(EFFACT_COMPILE_CACHE=0 bench)`; CI's perf job runs
 * it on `bench_fig11_ablation`). The figure tables never mention the
 * cache, so stdout is identical either way; cache notes go to stderr.
 */
inline bool
compileCacheEnabled()
{
    const char *env = std::getenv("EFFACT_COMPILE_CACHE");
    return env == nullptr || std::strcmp(env, "0") != 0;
}

/** Stderr one-liner of a shared cache's hit accounting. */
inline void
reportCacheStats(const CompileCache &cache)
{
    const StatSet s = cache.statsSnapshot();
    std::fprintf(stderr,
                 "[cache] %.0f lookups, %.0f hits, %.0f middle-end "
                 "run(s)\n",
                 s.get("cache.lookups"), s.get("cache.hits"),
                 s.get("cache.misses"));
}

/** Compile + simulate a fresh copy of a workload builder's output. */
inline PlatformResult
runOn(const HardwareConfig &hw, Workload workload)
{
    Platform platform(hw, Platform::fullOptions(hw.sramBytes));
    return platform.run(workload);
}

/**
 * `runSweep` at `EFFACT_THREADS` workers, reporting batch wall-clock on
 * stderr (never stdout: figure tables must stay byte-identical at any
 * `EFFACT_THREADS` setting).
 */
inline std::vector<PlatformResult>
runTimed(const std::vector<SweepJob> &jobs, CompileCache *cache)
{
    using Clock = std::chrono::steady_clock;
    const size_t threads = defaultThreadCount();
    const Clock::time_point t0 = Clock::now();
    std::vector<PlatformResult> results = runSweep(jobs, threads, cache);
    const std::chrono::duration<double> seconds = Clock::now() - t0;
    std::fprintf(stderr, "[sweep] %zu jobs on %zu worker(s): %.2f s\n",
                 jobs.size(), std::min(threads, jobs.size()),
                 seconds.count());
    return results;
}

/** Paper-scale CKKS parameters (Table III row 1). */
inline FheParams
paperFhe()
{
    return FheParams{}; // logN=16, L=24, dnum=4, lanes=1024
}

} // namespace effact

#endif // EFFACT_BENCH_COMMON_H
