#include "runtime/sweep.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace effact {

namespace {

using Clock = std::chrono::steady_clock;
using Ms = std::chrono::duration<double, std::milli>;

/** Builds and runs one job (through the shared compile cache, when
 *  there is one). */
PlatformResult
runJob(const SweepJob &job, CompileCache *cache)
{
    EFFACT_ASSERT(job.build != nullptr, "sweep job '%s' has no workload",
                  job.name.c_str());
    const Clock::time_point t0 = Clock::now();
    Workload workload = job.build();
    const double ir_ms = Ms(Clock::now() - t0).count();
    const Platform platform(job.hw, job.copts);
    PlatformResult r = platform.run(workload, cache);
    r.jobStats.set("job.ir.ms", ir_ms);
    return r;
}

} // namespace

std::vector<PlatformResult>
runSweep(const std::vector<SweepJob> &jobs, size_t threads,
         CompileCache *cache)
{
    std::vector<PlatformResult> results(jobs.size());
    if (threads <= 1 || jobs.size() <= 1) {
        for (size_t i = 0; i < jobs.size(); ++i)
            results[i] = runJob(jobs[i], cache);
        return results;
    }
    // One task per job on a pool sized to the batch, so at most
    // `threads` jobs run at once. Workers write disjoint result slots;
    // the pool's queue and `wait` are the only synchronization.
    ThreadPool pool(std::min(threads, jobs.size()));
    for (size_t i = 0; i < jobs.size(); ++i)
        pool.submit([&jobs, &results, cache, i](size_t) {
            results[i] = runJob(jobs[i], cache);
        });
    pool.wait();
    return results;
}

} // namespace effact
