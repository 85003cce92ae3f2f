#include "runtime/sweep.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace effact {

namespace {

using Clock = std::chrono::steady_clock;
using Ms = std::chrono::duration<double, std::milli>;

/** Runs one job (through the shared compile cache, when the engine has
 *  one). */
SweepResult
runJob(const SweepJob &job, size_t index, CompileCache *cache)
{
    EFFACT_ASSERT(job.build != nullptr, "sweep job '%s' has no workload",
                  job.name.c_str());
    const Clock::time_point t0 = Clock::now();
    Workload workload = job.build();
    const double ir_ms = Ms(Clock::now() - t0).count();
    Platform platform(job.hw, job.copts);
    SweepResult r;
    r.name = job.name;
    r.jobIndex = index;
    r.platform = platform.run(workload, cache);
    r.platform.jobStats.set("job.ir.ms", ir_ms);
    return r;
}

/** Accumulates one value into `<key>.{sum,min,max,count}`. */
void
accumulate(StatSet &agg, const std::string &key, double value)
{
    agg.add(key + ".sum", value);
    agg.add(key + ".count", 1);
    const std::string min_key = key + ".min";
    const std::string max_key = key + ".max";
    if (!agg.has(min_key) || value < agg.get(min_key))
        agg.set(min_key, value);
    if (!agg.has(max_key) || value > agg.get(max_key))
        agg.set(max_key, value);
}

} // namespace

size_t
SweepEngine::submit(SweepJob job)
{
    EFFACT_ASSERT(!ran_, "submit after runAll");
    if (opts_.verifyLevel >= 0)
        job.copts.verifyLevel = opts_.verifyLevel;
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

size_t
SweepEngine::submit(std::string name, std::function<Workload()> build,
                    HardwareConfig hw, CompilerOptions copts)
{
    SweepJob job;
    job.name = std::move(name);
    job.build = std::move(build);
    job.hw = std::move(hw);
    job.copts = copts;
    return submit(std::move(job));
}

const std::vector<SweepResult> &
SweepEngine::runAll()
{
    EFFACT_ASSERT(!ran_, "runAll is one-shot per engine");
    ran_ = true;
    results_.resize(jobs_.size());

    const size_t want = threads();
    if (want <= 1 || jobs_.size() <= 1) {
        // Serial path: submission order on the calling thread.
        workers_used_ = 1;
        for (size_t i = 0; i < jobs_.size(); ++i)
            results_[i] = runJob(jobs_[i], i, opts_.compileCache);
    } else {
        // One task per job on a pool sized to the batch, so at most
        // `threads` jobs run at once. Workers write disjoint result
        // slots; the pool's queue and `wait` are the only
        // synchronization.
        workers_used_ = std::min(want, jobs_.size());
        ThreadPool pool(workers_used_);
        for (size_t i = 0; i < jobs_.size(); ++i)
            pool.submit([this, i](size_t) {
                results_[i] = runJob(jobs_[i], i, opts_.compileCache);
            });
        pool.wait();
    }

    // Aggregates from the ordered results on the calling thread:
    // deterministic accumulation order regardless of worker timing.
    aggregates_.clear();
    for (const SweepResult &r : results_) {
        for (const auto &[key, value] : r.platform.compilerStats.all())
            accumulate(aggregates_, "compile." + key, value);
        for (const auto &[key, value] : r.platform.sim.stats.all())
            accumulate(aggregates_, "sim." + key, value);
        for (const auto &[key, value] : r.platform.jobStats.all())
            accumulate(aggregates_, key, value); // already `job.`-prefixed
        accumulate(aggregates_, "platform.benchTimeMs",
                   r.platform.benchTimeMs);
        accumulate(aggregates_, "platform.dramGb", r.platform.dramGb);
        accumulate(aggregates_, "platform.cycles", r.platform.sim.cycles);
        accumulate(aggregates_, "platform.instructions",
                   double(r.platform.sim.instructions));
    }
    // Derive means once the sums are complete.
    std::vector<std::pair<std::string, double>> means;
    for (const auto &[key, value] : aggregates_.all()) {
        const size_t dot = key.rfind(".sum");
        if (dot == std::string::npos || dot + 4 != key.size())
            continue;
        const std::string base = key.substr(0, dot);
        const double count = aggregates_.get(base + ".count");
        if (count > 0)
            means.emplace_back(base + ".mean", value / count);
    }
    for (const auto &[key, value] : means)
        aggregates_.set(key, value);
    aggregates_.set("sweep.jobs", double(jobs_.size()));
    aggregates_.set("sweep.threads", double(workers_used_));
    // Shared-cache totals ride along under their own `cache.*` keys.
    // Cumulative for the cache's lifetime: a cache shared across
    // engines reports its running totals, not this batch's delta.
    if (opts_.compileCache != nullptr)
        aggregates_.merge(opts_.compileCache->statsSnapshot());
    return results_;
}

} // namespace effact
