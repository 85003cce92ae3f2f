/**
 * @file
 * Batch-execution runtime tests: ThreadPool scheduling basics,
 * `runSweep`'s ordered result delivery, serial path and concurrency
 * bound, and the central determinism guarantee — the same job batch at
 * 1, 2 and 8 threads yields identical simulated cycles, machine-code
 * fingerprints and compiler/simulator stats (timing keys excluded:
 * wall-clock is the one legitimately nondeterministic stat).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "compiler/compile_cache.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"

namespace effact {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter](size_t) { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WorkerIndicesStayInRange)
{
    ThreadPool pool(3);
    std::mutex mu;
    std::set<size_t> seen;
    for (int i = 0; i < 64; ++i)
        pool.submit([&](size_t worker) {
            std::lock_guard<std::mutex> lock(mu);
            seen.insert(worker);
        });
    pool.wait();
    for (size_t worker : seen)
        EXPECT_LT(worker, 3u);
    EXPECT_GE(seen.size(), 1u);
}

TEST(ThreadPool, DestructorDrainsOutstandingTasks)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&counter](size_t) { ++counter; });
        // No wait(): the destructor must drain before joining.
    }
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, WaitIsReusableBetweenBatches)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&counter](size_t) { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
    pool.submit([&counter](size_t) { ++counter; });
    pool.submit([&counter](size_t) { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ZeroThreadRequestStillRuns)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::atomic<int> counter{0};
    pool.submit([&counter](size_t) { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
}

// --- runSweep -------------------------------------------------------------

/** Reduced-size benchmark grid shared by the sweep tests. */
std::vector<SweepJob>
smallGrid()
{
    FheParams fhe;
    fhe.logN = 13;
    fhe.levels = 8;
    fhe.dnum = 2;
    std::vector<SweepJob> jobs;
    const std::vector<HardwareConfig> configs = {
        HardwareConfig::asicEffact27(), HardwareConfig::fpgaEffact()};
    for (const HardwareConfig &hw : configs) {
        for (int preset = 0; preset < 3; ++preset) {
            CompilerOptions opts;
            switch (preset) {
              case 0: opts = Platform::baselineOptions(hw.sramBytes); break;
              case 1:
                opts = Platform::streamingOptions(hw.sramBytes);
                break;
              default: opts = Platform::fullOptions(hw.sramBytes); break;
            }
            SweepJob job;
            job.name = std::string(hw.name) + "/preset" +
                       std::to_string(preset);
            const size_t records = 32 + 32 * size_t(preset);
            job.build = [fhe, records] {
                return buildDbLookup(fhe, records);
            };
            job.hw = hw;
            job.copts = opts;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** A stat set minus its wall-clock (`*.ms`) keys and the per-job
 *  `cache.hit` marker: what must not depend on the thread count, the
 *  cache, or which worker won a build race. */
std::map<std::string, double>
deterministicStats(const StatSet &stats)
{
    std::map<std::string, double> out;
    for (const auto &[key, value] : stats.all()) {
        const bool wall_clock =
            key.size() >= 3 && key.compare(key.size() - 3, 3, ".ms") == 0;
        if (!wall_clock && key != "cache.hit")
            out.emplace(key, value);
    }
    return out;
}

/** Job-by-job equality of every deterministic result field: cycles,
 *  traffic, instruction count, fingerprint, bench metrics, and the
 *  compiler and simulator stats. */
void
expectSameResults(const std::vector<PlatformResult> &got,
                  const std::vector<PlatformResult> &oracle,
                  const std::vector<SweepJob> &jobs, const std::string &tag)
{
    ASSERT_EQ(got.size(), jobs.size()) << tag;
    ASSERT_EQ(oracle.size(), jobs.size()) << tag;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const std::string where = tag + " " + jobs[i].name;
        EXPECT_DOUBLE_EQ(got[i].sim.cycles, oracle[i].sim.cycles) << where;
        EXPECT_DOUBLE_EQ(got[i].sim.dramBytes, oracle[i].sim.dramBytes)
            << where;
        EXPECT_EQ(got[i].sim.instructions, oracle[i].sim.instructions)
            << where;
        EXPECT_EQ(got[i].machineFingerprint, oracle[i].machineFingerprint)
            << where;
        EXPECT_DOUBLE_EQ(got[i].benchTimeMs, oracle[i].benchTimeMs)
            << where;
        EXPECT_DOUBLE_EQ(got[i].dramGb, oracle[i].dramGb) << where;
        EXPECT_EQ(deterministicStats(got[i].compilerStats),
                  deterministicStats(oracle[i].compilerStats))
            << where;
        EXPECT_EQ(deterministicStats(got[i].sim.stats),
                  deterministicStats(oracle[i].sim.stats))
            << where;
    }
}

TEST(RunSweep, ResultsArriveInJobOrder)
{
    const std::vector<SweepJob> jobs = smallGrid();
    const std::vector<PlatformResult> results = runSweep(jobs, 4);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_GT(results[i].sim.cycles, 0.0) << jobs[i].name;
    // Same grid serially: the pooled results match job for job.
    const std::vector<PlatformResult> serial = runSweep(jobs, 1);
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_DOUBLE_EQ(results[i].sim.cycles, serial[i].sim.cycles)
            << jobs[i].name;
}

TEST(RunSweep, SerialPathMatchesPlatformRun)
{
    // threads=1 must reproduce a plain Platform::run job for job.
    const std::vector<SweepJob> jobs = smallGrid();
    const std::vector<PlatformResult> serial = runSweep(jobs, 1);
    ASSERT_EQ(serial.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        Workload w = jobs[i].build();
        Platform p(jobs[i].hw, jobs[i].copts);
        PlatformResult direct = p.run(w);
        EXPECT_DOUBLE_EQ(serial[i].sim.cycles, direct.sim.cycles)
            << jobs[i].name;
        EXPECT_EQ(serial[i].machineFingerprint, direct.machineFingerprint)
            << jobs[i].name;
        EXPECT_DOUBLE_EQ(serial[i].benchTimeMs, direct.benchTimeMs)
            << jobs[i].name;
    }
}

TEST(RunSweep, EmptyJobListReturnsNoResults)
{
    for (size_t threads : {size_t(0), size_t(1), size_t(8)})
        EXPECT_TRUE(runSweep({}, threads).empty()) << threads;
}

TEST(RunSweep, SerialPathRunsEveryBuildOnTheCallingThread)
{
    // threads = 0 and threads = 1 both take the serial path: no pool,
    // every build on the calling thread, and the pooled run's results.
    const std::vector<PlatformResult> pooled = runSweep(smallGrid(), 8);
    for (size_t threads : {size_t(0), size_t(1)}) {
        std::mutex mu;
        std::vector<std::thread::id> build_threads;
        std::vector<SweepJob> jobs = smallGrid();
        for (SweepJob &job : jobs)
            job.build = [build = job.build, &mu, &build_threads] {
                {
                    std::lock_guard<std::mutex> lock(mu);
                    build_threads.push_back(std::this_thread::get_id());
                }
                return build();
            };
        const std::vector<PlatformResult> serial = runSweep(jobs, threads);
        ASSERT_EQ(build_threads.size(), jobs.size()) << threads;
        for (std::thread::id id : build_threads)
            EXPECT_EQ(id, std::this_thread::get_id()) << threads;
        expectSameResults(serial, pooled, jobs,
                          "threads=" + std::to_string(threads));
    }
}

TEST(RunSweep, DeterministicAcrossThreadCounts)
{
    // The pinned guarantee: 1, 2 and 8 threads produce identical
    // simulated cycles, machine-code fingerprints and stats.
    const std::vector<SweepJob> jobs = smallGrid();
    const std::vector<PlatformResult> serial = runSweep(jobs, 1);
    for (size_t threads : {size_t(2), size_t(8)})
        expectSameResults(runSweep(jobs, threads), serial, jobs,
                          "threads=" + std::to_string(threads));
}

TEST(RunSweep, DeterministicAcrossThreadCountsWithSharedCache)
{
    // The determinism guarantee must survive the shared compile cache
    // at any thread count *and any hit pattern*: which worker builds a
    // contested entry is racy, but single-flight entries are immutable
    // and replayed, so results cannot tell. The uncached serial run is
    // the oracle.
    const std::vector<SweepJob> jobs = smallGrid();
    const std::vector<PlatformResult> oracle = runSweep(jobs, 1);

    // smallGrid: two hardware configs over three presets; the workload
    // differs per preset, the hardware only in back-end knobs, so the
    // cache holds 3 entries for 6 jobs.
    for (size_t threads : {size_t(1), size_t(2), size_t(8)}) {
        CompileCache cache;
        const std::vector<PlatformResult> cached =
            runSweep(jobs, threads, &cache);
        expectSameResults(cached, oracle, jobs,
                          "cached@" + std::to_string(threads));
        const StatSet cs = cache.statsSnapshot();
        EXPECT_EQ(cs.get("cache.lookups"), 6.0) << threads;
        EXPECT_EQ(cs.get("cache.misses"), 3.0) << threads;
        EXPECT_EQ(cs.get("cache.hits"), 3.0) << threads;
        // Hit totals don't depend on which worker won a build race.
        double hits = 0;
        for (const PlatformResult &r : cached)
            hits += r.compilerStats.get("cache.hit");
        EXPECT_EQ(hits, 3.0) << threads;
    }
}

TEST(RunSweep, MoreThreadsThanJobsIsFine)
{
    FheParams fhe;
    fhe.logN = 12;
    fhe.levels = 6;
    fhe.dnum = 2;
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    const std::vector<PlatformResult> results =
        runSweep({{"solo", [fhe] { return buildDbLookup(fhe, 16); }, hw,
                   Platform::fullOptions(hw.sramBytes)}},
                 16);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].sim.cycles, 0.0);
}

// --- Verified sweeps, concurrency bound, per-stage timers ---------------

TEST(RunSweep, VerifiedPresetSweepMatchesSerialOracle)
{
    // All four Fig. 11 presets, fully checkpoint-verified, on four
    // workers: verifier-clean and equal to the serial verified oracle.
    FheParams fhe;
    fhe.logN = 13;
    fhe.levels = 8;
    fhe.dnum = 2;
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    std::vector<SweepJob> jobs;
    const std::vector<std::pair<const char *, CompilerOptions>> presets =
        {{"baseline", Platform::baselineOptions(hw.sramBytes)},
         {"mad", Platform::madEnhancedOptions(hw.sramBytes)},
         {"streaming", Platform::streamingOptions(hw.sramBytes)},
         {"full", Platform::fullOptions(hw.sramBytes)}};
    for (const auto &[name, copts] : presets) {
        SweepJob job;
        job.name = name;
        job.build = [fhe] { return buildDbLookup(fhe, 48); };
        job.hw = hw;
        job.copts = copts;
        job.copts.verifyLevel = 1;
        jobs.push_back(std::move(job));
    }
    expectSameResults(runSweep(jobs, 4), runSweep(jobs, 1), jobs,
                      "verified presets");
}

TEST(RunSweep, StageTimersPresentOnEveryPath)
{
    // Every job reports its per-stage wall clock — IR build, middle
    // end, back end, simulate, machine-code fingerprint, and the total
    // they close on — on the serial and the pooled path alike.
    const std::vector<SweepJob> jobs = smallGrid();
    for (size_t threads : {size_t(1), size_t(3)}) {
        const std::vector<PlatformResult> results = runSweep(jobs, threads);
        ASSERT_EQ(results.size(), jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i)
            for (const char *key :
                 {"job.ir.ms", "job.middle.ms", "job.backend.ms",
                  "job.sim.ms", "job.fingerprint.ms", "job.total.ms"})
                EXPECT_TRUE(results[i].jobStats.has(key))
                    << "threads=" << threads << " " << jobs[i].name << " "
                    << key;
    }
}

TEST(RunSweep, RunsAtMostThreadsJobsAtOnce)
{
    // `threads` bounds the jobs in flight: the calling thread waits
    // instead of running jobs itself. Each build holds its job in
    // flight long enough for every worker to start one.
    std::mutex mu;
    size_t in_flight = 0;
    size_t peak = 0;
    std::vector<SweepJob> jobs = smallGrid();
    for (SweepJob &job : jobs)
        job.build = [build = job.build, &mu, &in_flight, &peak] {
            {
                std::lock_guard<std::mutex> lock(mu);
                peak = std::max(peak, ++in_flight);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            Workload w = build();
            std::lock_guard<std::mutex> lock(mu);
            --in_flight;
            return w;
        };
    runSweep(jobs, 2);
    EXPECT_EQ(peak, 2u);
}

TEST(DefaultThreadCount, IsPositive)
{
    EXPECT_GE(defaultThreadCount(), 1u);
}

} // namespace
} // namespace effact
