/**
 * @file
 * Batch-execution runtime tests: ThreadPool scheduling basics, the
 * SweepEngine's ordered result delivery and stat aggregation, and the
 * central determinism guarantee — the same job batch at 1, 2 and 8
 * threads yields identical simulated cycles, machine-code fingerprints
 * and stat aggregates (timing keys excluded: wall-clock is the one
 * legitimately nondeterministic stat).
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

// --- SweepEngine ----------------------------------------------------------

/** Reduced-size benchmark grid shared by the engine tests. */
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

std::vector<SweepResult>
runGrid(size_t threads)
{
    SweepEngine engine({threads});
    for (SweepJob &job : smallGrid())
        engine.submit(std::move(job));
    return engine.runAll();
}

TEST(SweepEngine, ResultsArriveInSubmissionOrder)
{
    SweepEngine engine({4});
    std::vector<SweepJob> jobs = smallGrid();
    const size_t n = jobs.size();
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(engine.submit(std::move(jobs[i])), i);
    const std::vector<SweepResult> &results = engine.runAll();
    ASSERT_EQ(results.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(results[i].jobIndex, i);
        EXPECT_GT(results[i].platform.sim.cycles, 0.0) << results[i].name;
    }
    // Same grid serially: the engine's results match job for job.
    const std::vector<SweepResult> serial = runGrid(1);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(results[i].name, serial[i].name);
        EXPECT_DOUBLE_EQ(results[i].platform.sim.cycles,
                         serial[i].platform.sim.cycles);
    }
}

TEST(SweepEngine, SerialPathMatchesPlatformRun)
{
    // threads=1 must reproduce a plain Platform::run job for job.
    const std::vector<SweepResult> serial = runGrid(1);
    std::vector<SweepJob> jobs = smallGrid();
    ASSERT_EQ(serial.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        Workload w = jobs[i].build();
        Platform p(jobs[i].hw, jobs[i].copts);
        PlatformResult direct = p.run(w);
        EXPECT_DOUBLE_EQ(serial[i].platform.sim.cycles, direct.sim.cycles)
            << jobs[i].name;
        EXPECT_EQ(serial[i].platform.machineFingerprint,
                  direct.machineFingerprint)
            << jobs[i].name;
        EXPECT_DOUBLE_EQ(serial[i].platform.benchTimeMs,
                         direct.benchTimeMs)
            << jobs[i].name;
    }
}

/** Strips wall-clock keys (`*.ms.*`), the one nondeterministic stat. */
std::map<std::string, double>
deterministicAggregates(const StatSet &agg)
{
    std::map<std::string, double> out;
    for (const auto &[key, value] : agg.all())
        if (key.find(".ms.") == std::string::npos)
            out.emplace(key, value);
    return out;
}

TEST(SweepEngine, DeterministicAcrossThreadCounts)
{
    // The pinned guarantee: 1, 2 and 8 threads produce identical
    // simulated cycles, machine-code fingerprints and aggregates.
    SweepEngine serial({1}), two({2}), eight({8});
    for (SweepEngine *engine : {&serial, &two, &eight})
        for (SweepJob &job : smallGrid())
            engine->submit(std::move(job));

    const std::vector<SweepResult> &r1 = serial.runAll();
    const std::vector<SweepResult> &r2 = two.runAll();
    const std::vector<SweepResult> &r8 = eight.runAll();
    ASSERT_EQ(r1.size(), r2.size());
    ASSERT_EQ(r1.size(), r8.size());
    for (size_t i = 0; i < r1.size(); ++i) {
        for (const std::vector<SweepResult> *rs : {&r2, &r8}) {
            const SweepResult &other = (*rs)[i];
            EXPECT_EQ(other.name, r1[i].name);
            EXPECT_DOUBLE_EQ(other.platform.sim.cycles,
                             r1[i].platform.sim.cycles)
                << r1[i].name;
            EXPECT_DOUBLE_EQ(other.platform.sim.dramBytes,
                             r1[i].platform.sim.dramBytes)
                << r1[i].name;
            EXPECT_EQ(other.platform.machineFingerprint,
                      r1[i].platform.machineFingerprint)
                << r1[i].name;
            EXPECT_DOUBLE_EQ(other.platform.benchTimeMs,
                             r1[i].platform.benchTimeMs)
                << r1[i].name;
        }
    }

    const auto agg1 = deterministicAggregates(serial.aggregates());
    auto agg2 = deterministicAggregates(two.aggregates());
    auto agg8 = deterministicAggregates(eight.aggregates());
    // Thread count is recorded in the aggregates by design; align it
    // before demanding equality of everything else.
    agg2["sweep.threads"] = agg1.at("sweep.threads");
    agg8["sweep.threads"] = agg1.at("sweep.threads");
    EXPECT_EQ(agg1, agg2);
    EXPECT_EQ(agg1, agg8);
}

TEST(SweepEngine, DeterministicAcrossThreadCountsWithSharedCache)
{
    // The determinism guarantee must survive the shared compile cache
    // at any thread count *and any hit pattern*: which worker builds a
    // contested entry is racy, but single-flight entries are immutable
    // and replayed, so results and aggregates cannot tell. The uncached
    // serial run is the oracle.
    SweepEngine uncached({1});
    for (SweepJob &job : smallGrid())
        uncached.submit(std::move(job));
    const std::vector<SweepResult> &oracle = uncached.runAll();

    // smallGrid: two hardware configs over three presets; the workload
    // differs per preset, the hardware only in back-end knobs, so the
    // cache holds 3 entries for 6 jobs.
    std::map<std::string, double> first_agg;
    for (size_t threads : {size_t(1), size_t(2), size_t(8)}) {
        CompileCache cache;
        SweepEngine engine({threads, &cache});
        for (SweepJob &job : smallGrid())
            engine.submit(std::move(job));
        const std::vector<SweepResult> &cached = engine.runAll();

        ASSERT_EQ(cached.size(), oracle.size());
        for (size_t i = 0; i < oracle.size(); ++i) {
            EXPECT_DOUBLE_EQ(cached[i].platform.sim.cycles,
                             oracle[i].platform.sim.cycles)
                << oracle[i].name << " @" << threads;
            EXPECT_EQ(cached[i].platform.machineFingerprint,
                      oracle[i].platform.machineFingerprint)
                << oracle[i].name << " @" << threads;
            EXPECT_DOUBLE_EQ(cached[i].platform.benchTimeMs,
                             oracle[i].platform.benchTimeMs)
                << oracle[i].name << " @" << threads;
        }
        EXPECT_EQ(engine.aggregates().get("cache.lookups"), 6.0);
        EXPECT_EQ(engine.aggregates().get("cache.misses"), 3.0);
        EXPECT_EQ(engine.aggregates().get("cache.hits"), 3.0);

        // Aggregates (wall-clock keys aside) are identical across
        // thread counts, cache.* included — hit totals don't depend on
        // which worker won a build race.
        auto agg = deterministicAggregates(engine.aggregates());
        agg["sweep.threads"] = 1.0;
        if (first_agg.empty())
            first_agg = agg;
        else
            EXPECT_EQ(first_agg, agg) << "threads=" << threads;
    }
}

TEST(SweepEngine, AggregatesSumMinMaxMean)
{
    SweepEngine engine({2});
    for (SweepJob &job : smallGrid())
        engine.submit(std::move(job));
    const std::vector<SweepResult> &results = engine.runAll();
    const StatSet &agg = engine.aggregates();

    EXPECT_EQ(agg.get("sweep.jobs"), double(results.size()));
    EXPECT_EQ(agg.get("sweep.threads"), 2.0);

    double sum = 0, mn = 0, mx = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const double c = results[i].platform.sim.cycles;
        sum += c;
        mn = i == 0 ? c : std::min(mn, c);
        mx = i == 0 ? c : std::max(mx, c);
    }
    EXPECT_DOUBLE_EQ(agg.get("platform.cycles.sum"), sum);
    EXPECT_DOUBLE_EQ(agg.get("platform.cycles.min"), mn);
    EXPECT_DOUBLE_EQ(agg.get("platform.cycles.max"), mx);
    EXPECT_DOUBLE_EQ(agg.get("platform.cycles.count"),
                     double(results.size()));
    EXPECT_DOUBLE_EQ(agg.get("platform.cycles.mean"),
                     sum / double(results.size()));

    // Per-pass compiler stats aggregate too: the full preset ran the
    // peephole on some jobs, so the key exists with a job count.
    EXPECT_TRUE(agg.has("compile.optimized.instructions.sum"));
    EXPECT_GT(agg.get("compile.optimized.instructions.count"), 0.0);
}

TEST(SweepEngine, MoreThreadsThanJobsIsFine)
{
    SweepEngine engine({16});
    FheParams fhe;
    fhe.logN = 12;
    fhe.levels = 6;
    fhe.dnum = 2;
    engine.submit("solo",
                  [fhe] { return buildDbLookup(fhe, 16); },
                  HardwareConfig::asicEffact27(),
                  Platform::fullOptions(HardwareConfig::asicEffact27()
                                            .sramBytes));
    const std::vector<SweepResult> &results = engine.runAll();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].platform.sim.cycles, 0.0);
}

// --- Verified sweeps, concurrency bound, per-stage timers ---------------

/** The serial oracle for a grid, with a forced verify level. */
std::vector<SweepResult>
serialOracle(const std::vector<SweepJob> &jobs, int verify_level = -1)
{
    SweepOptions o;
    o.threads = 1;
    o.verifyLevel = verify_level;
    SweepEngine engine(o);
    for (const SweepJob &job : jobs)
        engine.submit(job);
    return engine.runAll();
}

void
expectSameResults(const std::vector<SweepResult> &got,
                  const std::vector<SweepResult> &oracle,
                  const std::string &tag)
{
    ASSERT_EQ(got.size(), oracle.size()) << tag;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].name, oracle[i].name) << tag;
        EXPECT_DOUBLE_EQ(got[i].platform.sim.cycles,
                         oracle[i].platform.sim.cycles)
            << tag << " " << oracle[i].name;
        EXPECT_DOUBLE_EQ(got[i].platform.sim.dramBytes,
                         oracle[i].platform.sim.dramBytes)
            << tag << " " << oracle[i].name;
        EXPECT_EQ(got[i].platform.machineFingerprint,
                  oracle[i].platform.machineFingerprint)
            << tag << " " << oracle[i].name;
        EXPECT_DOUBLE_EQ(got[i].platform.benchTimeMs,
                         oracle[i].platform.benchTimeMs)
            << tag << " " << oracle[i].name;
    }
}

TEST(SweepEngine, VerifiedPresetSweepMatchesSerialOracle)
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
        jobs.push_back(std::move(job));
    }
    const std::vector<SweepResult> oracle =
        serialOracle(jobs, /*verify_level=*/1);
    SweepOptions o;
    o.threads = 4;
    o.verifyLevel = 1;
    SweepEngine engine(o);
    for (const SweepJob &job : jobs)
        engine.submit(job);
    expectSameResults(engine.runAll(), oracle, "verified presets");
}

TEST(SweepEngine, StageTimersPresentOnEveryPath)
{
    // Every job reports its per-stage wall clock — IR build, middle
    // end, back end, simulate, machine-code fingerprint, and the total
    // they close on — on the serial and the pooled path alike.
    const std::vector<SweepJob> jobs = smallGrid();
    for (const char *path : {"serial", "pooled"}) {
        SweepOptions o;
        o.threads = std::string(path) == "serial" ? 1 : 3;
        SweepEngine engine(o);
        for (const SweepJob &job : jobs)
            engine.submit(job);
        engine.runAll();
        const StatSet &agg = engine.aggregates();
        for (const char *key :
             {"job.ir.ms.count", "job.middle.ms.count",
              "job.backend.ms.count", "job.sim.ms.count",
              "job.fingerprint.ms.count", "job.total.ms.count"})
            EXPECT_EQ(agg.get(key), double(jobs.size())) << path << key;
    }
}

TEST(SweepEngine, RunsAtMostThreadsJobsAtOnce)
{
    // `threads` bounds the jobs in flight: the calling thread waits
    // instead of running jobs itself. Each build holds its job in
    // flight long enough for every worker to start one.
    std::mutex mu;
    size_t in_flight = 0;
    size_t peak = 0;
    SweepEngine engine({2});
    for (SweepJob &job : smallGrid()) {
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
        engine.submit(std::move(job));
    }
    engine.runAll();
    EXPECT_EQ(peak, 2u);
    EXPECT_EQ(engine.workersUsed(), 2u);
}

TEST(DefaultThreadCount, IsPositive)
{
    EXPECT_GE(defaultThreadCount(), 1u);
}

} // namespace
} // namespace effact
