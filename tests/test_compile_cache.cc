/**
 * @file
 * Correctness suite for the hardware-split compile cache: the
 * content-addressed `IrProgram` fingerprint, the preset half of the
 * key (hardware knobs excluded, everything else included), single-
 * flight hit/miss accounting, and the central soundness claim — a
 * cache hit is byte-identical to the uncached compile it replaces,
 * including when the cache is shared across 8 concurrent workers.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compile_cache.h"
#include "compiler/pass_manager.h"
#include "runtime/sweep.h"

namespace effact {
namespace {

FheParams
smallFhe()
{
    FheParams fhe;
    fhe.logN = 13;
    fhe.levels = 8;
    fhe.dnum = 2;
    return fhe;
}

/** Per-compile stats minus wall-clock and cache-marker keys, for
 *  comparing a hit compile against an uncached one. */
std::map<std::string, double>
comparableStats(const StatSet &stats)
{
    std::map<std::string, double> out;
    for (const auto &[key, value] : stats.all()) {
        if (key.rfind("cache.", 0) == 0)
            continue;
        if (key.size() >= 3 && key.compare(key.size() - 3, 3, ".ms") == 0)
            continue;
        out.emplace(key, value);
    }
    return out;
}

// --- IrProgram fingerprint ------------------------------------------------

TEST(IrFingerprint, IdenticalBuildsHashEqualDespiteDistinctUids)
{
    Workload a = buildDbLookup(smallFhe(), 32);
    Workload b = buildDbLookup(smallFhe(), 32);
    ASSERT_NE(a.program.uid(), b.program.uid());
    EXPECT_EQ(fingerprint(a.program), fingerprint(b.program));
}

TEST(IrFingerprint, ContentAndOrderSensitive)
{
    Workload base = buildDbLookup(smallFhe(), 32);
    const uint64_t fp = fingerprint(base.program);

    Workload tweaked = buildDbLookup(smallFhe(), 32);
    ASSERT_FALSE(tweaked.program.insts.empty());
    tweaked.program.insts.front().imm += 1;
    EXPECT_NE(fingerprint(tweaked.program), fp);

    Workload swapped = buildDbLookup(smallFhe(), 32);
    ASSERT_GE(swapped.program.insts.size(), 2u);
    std::swap(swapped.program.insts[0], swapped.program.insts[1]);
    EXPECT_NE(fingerprint(swapped.program), fp)
        << "fingerprint must be order-sensitive";
}

TEST(IrFingerprint, IgnoresDisplayOnlyNames)
{
    Workload a = buildDbLookup(smallFhe(), 32);
    Workload b = buildDbLookup(smallFhe(), 32);
    b.program.name = "renamed";
    if (!b.program.objects.empty())
        b.program.objects.front().name = "renamed-object";
    EXPECT_EQ(fingerprint(a.program), fingerprint(b.program));
}

// --- Preset hash ----------------------------------------------------------

TEST(PresetHash, HardwareKnobsAreExcluded)
{
    // The hardware split: options differing only in the knobs Platform
    // derives from HardwareConfig must share a middle-end key.
    CompilerOptions a = Platform::fullOptions(size_t(27) << 20);
    CompilerOptions b = Platform::fullOptions(size_t(13) << 20);
    b.issueWindow = a.issueWindow * 2;
    EXPECT_EQ(middleEndPresetHash(a), middleEndPresetHash(b));
}

TEST(PresetHash, PresetsKeySeparately)
{
    const size_t sram = size_t(27) << 20;
    const std::vector<CompilerOptions> presets = {
        Platform::baselineOptions(sram), Platform::madEnhancedOptions(sram),
        Platform::streamingOptions(sram), Platform::fullOptions(sram),
        Platform::optimizedOptions(sram)};
    for (size_t i = 0; i < presets.size(); ++i)
        for (size_t j = i + 1; j < presets.size(); ++j)
            EXPECT_NE(middleEndPresetHash(presets[i]),
                      middleEndPresetHash(presets[j]))
                << "presets " << i << " and " << j
                << " must not share a cache entry (MAD-enhanced and "
                   "streaming share a pipeline spec but differ in "
                   "back-end options, which are part of the preset "
                   "identity)";
}

// --- Cache behavior -------------------------------------------------------

TEST(CompileCache, StructurallyIdenticalProgramsHit)
{
    CompileCache cache;
    Compiler compiler(Platform::fullOptions(size_t(27) << 20));
    AnalysisManager analyses;

    Workload first = buildDbLookup(smallFhe(), 32);
    MachineProgram mp1 =
        compiler.compile(first.program, analyses, &cache);
    EXPECT_EQ(compiler.stats().get("cache.hit"), 0.0);

    // A different program object with the same content (different uid,
    // freshly counted version) must hit.
    Workload second = buildDbLookup(smallFhe(), 32);
    MachineProgram mp2 =
        compiler.compile(second.program, analyses, &cache);
    EXPECT_EQ(compiler.stats().get("cache.hit"), 1.0);
    EXPECT_EQ(fingerprint(mp1), fingerprint(mp2));

    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.lookups"), 2.0);
    EXPECT_EQ(cs.get("cache.hits"), 1.0);
    EXPECT_EQ(cs.get("cache.misses"), 1.0);
    EXPECT_EQ(cs.get("cache.entries"), 1.0);
}

TEST(CompileCache, MutationAfterCachingMisses)
{
    CompileCache cache;
    Compiler compiler(Platform::fullOptions(size_t(27) << 20));
    AnalysisManager analyses;

    Workload cached = buildDbLookup(smallFhe(), 32);
    compiler.compile(cached.program, analyses, &cache);
    ASSERT_EQ(cache.statsSnapshot().get("cache.misses"), 1.0);

    // Mutate a rebuilt copy the way a pass would: rewrite in place and
    // bump the version. The content fingerprint moves with it, so the
    // stale entry cannot be served.
    Workload mutated = buildDbLookup(smallFhe(), 32);
    const uint64_t version_before = mutated.program.version();
    ASSERT_FALSE(mutated.program.insts.empty());
    mutated.program.insts.front().imm += 1;
    mutated.program.bumpVersion();
    EXPECT_GT(mutated.program.version(), version_before);

    compiler.compile(mutated.program, analyses, &cache);
    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.lookups"), 2.0);
    EXPECT_EQ(cs.get("cache.misses"), 2.0)
        << "a mutated program must not reuse the pre-mutation entry";
    EXPECT_EQ(cs.get("cache.entries"), 2.0);
}

TEST(CompileCache, DifferentPresetsDoNotShareEntries)
{
    CompileCache cache;
    AnalysisManager analyses;
    Workload a = buildDbLookup(smallFhe(), 32);
    Workload b = buildDbLookup(smallFhe(), 32);

    Compiler full(Platform::fullOptions(size_t(27) << 20));
    Compiler baseline(Platform::baselineOptions(size_t(27) << 20));
    full.compile(a.program, analyses, &cache);
    baseline.compile(b.program, analyses, &cache);

    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.lookups"), 2.0);
    EXPECT_EQ(cs.get("cache.hits"), 0.0);
    EXPECT_EQ(cs.get("cache.entries"), 2.0);
}

TEST(CompileCache, HitIsByteIdenticalToUncachedCompile)
{
    // Two hardware points of the same (workload, preset): the second
    // compile hits the first's middle-end snapshot, and everything it
    // produces — machine code, simulated cycles, compiler stats modulo
    // wall-clock and the cache marker — matches an uncached compile.
    const HardwareConfig hw27 = HardwareConfig::asicEffact27();
    HardwareConfig hw13 = hw27;
    hw13.sramBytes = size_t(13) << 20;

    CompileCache cache;
    AnalysisManager analyses;
    Platform p27(hw27, Platform::fullOptions(hw27.sramBytes));
    Platform p13(hw13, Platform::fullOptions(hw13.sramBytes));

    Workload w27 = buildDbLookup(smallFhe(), 64);
    Workload w13 = buildDbLookup(smallFhe(), 64);
    const PlatformResult cached27 = p27.run(w27, analyses, &cache);
    const PlatformResult cached13 = p13.run(w13, analyses, &cache);
    EXPECT_EQ(cached13.compilerStats.get("cache.hit"), 1.0);
    EXPECT_EQ(cache.statsSnapshot().get("cache.misses"), 1.0);

    Workload u27 = buildDbLookup(smallFhe(), 64);
    Workload u13 = buildDbLookup(smallFhe(), 64);
    AnalysisManager fresh27, fresh13;
    const PlatformResult plain27 = p27.run(u27, fresh27);
    const PlatformResult plain13 = p13.run(u13, fresh13);

    EXPECT_EQ(cached27.machineFingerprint, plain27.machineFingerprint);
    EXPECT_EQ(cached13.machineFingerprint, plain13.machineFingerprint);
    EXPECT_DOUBLE_EQ(cached13.sim.cycles, plain13.sim.cycles);
    EXPECT_DOUBLE_EQ(cached13.sim.dramBytes, plain13.sim.dramBytes);
    EXPECT_EQ(comparableStats(cached13.compilerStats),
              comparableStats(plain13.compilerStats));
    // The two hardware points genuinely differ — the cache did not
    // leak back-end results across configs.
    EXPECT_NE(cached27.machineFingerprint, cached13.machineFingerprint);
}

TEST(CompileCache, ClearResetsEntriesAndCounters)
{
    CompileCache cache;
    Compiler compiler(Platform::fullOptions(size_t(27) << 20));
    AnalysisManager analyses;
    Workload w = buildDbLookup(smallFhe(), 32);
    compiler.compile(w.program, analyses, &cache);
    ASSERT_EQ(cache.entryCount(), 1u);

    cache.clear();
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.statsSnapshot().get("cache.lookups"), 0.0);

    Workload again = buildDbLookup(smallFhe(), 32);
    compiler.compile(again.program, analyses, &cache);
    EXPECT_EQ(cache.statsSnapshot().get("cache.misses"), 1.0);
}

// --- Shared across workers ------------------------------------------------

/** The preset x hardware grid shared by the worker tests: 12 jobs over
 *  4 presets x 3 SRAM budgets of one workload — the `bench_fig11_
 *  ablation` shape at test scale. Exactly 4 distinct middle-end keys. */
std::vector<SweepJob>
presetSramGrid()
{
    const FheParams fhe = smallFhe();
    std::vector<SweepJob> jobs;
    const std::vector<size_t> sram_points = {
        size_t(27) << 20, size_t(13) << 20, size_t(54) << 20};
    CompilerOptions (*const presets[])(size_t) = {
        Platform::baselineOptions, Platform::madEnhancedOptions,
        Platform::streamingOptions, Platform::fullOptions};
    for (size_t s = 0; s < sram_points.size(); ++s) {
        for (size_t p = 0; p < 4; ++p) {
            HardwareConfig hw = HardwareConfig::asicEffact27();
            hw.sramBytes = sram_points[s];
            SweepJob job;
            job.name = "sram" + std::to_string(s) + "/preset" +
                       std::to_string(p);
            job.build = [fhe] { return buildDbLookup(fhe, 64); };
            job.hw = hw;
            job.copts = presets[p](sram_points[s]);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(CompileCache, SharedAcrossEightWorkersMatchesUncachedSerial)
{
    SweepEngine uncached({1});
    for (SweepJob &job : presetSramGrid())
        uncached.submit(std::move(job));
    const std::vector<SweepResult> &plain = uncached.runAll();

    CompileCache cache;
    SweepEngine engine({8, &cache});
    for (SweepJob &job : presetSramGrid())
        engine.submit(std::move(job));
    const std::vector<SweepResult> &cached = engine.runAll();

    ASSERT_EQ(cached.size(), plain.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(cached[i].name, plain[i].name);
        EXPECT_DOUBLE_EQ(cached[i].platform.sim.cycles,
                         plain[i].platform.sim.cycles)
            << plain[i].name;
        EXPECT_DOUBLE_EQ(cached[i].platform.sim.dramBytes,
                         plain[i].platform.sim.dramBytes)
            << plain[i].name;
        EXPECT_EQ(cached[i].platform.machineFingerprint,
                  plain[i].platform.machineFingerprint)
            << plain[i].name;
        EXPECT_DOUBLE_EQ(cached[i].platform.benchTimeMs,
                         plain[i].platform.benchTimeMs)
            << plain[i].name;
        EXPECT_EQ(comparableStats(cached[i].platform.compilerStats),
                  comparableStats(plain[i].platform.compilerStats))
            << plain[i].name;
    }
}

TEST(CompileCache, SingleFlightBuildCountsAreExactAtAnyThreadCount)
{
    for (size_t threads : {size_t(1), size_t(2), size_t(8)}) {
        CompileCache cache;
        SweepEngine engine({threads, &cache});
        for (SweepJob &job : presetSramGrid())
            engine.submit(std::move(job));
        engine.runAll();

        const StatSet cs = cache.statsSnapshot();
        EXPECT_EQ(cs.get("cache.lookups"), 12.0) << threads;
        // One middle-end run per preset, never more (single-flight) and
        // never fewer (presets key separately), racy or not.
        EXPECT_EQ(cs.get("cache.misses"), 4.0) << threads;
        EXPECT_EQ(cs.get("cache.hits"), 8.0) << threads;
        EXPECT_EQ(cs.get("cache.entries"), 4.0) << threads;
        // The engine mirrors the totals into its aggregates.
        EXPECT_EQ(engine.aggregates().get("cache.misses"), 4.0);
        EXPECT_EQ(engine.aggregates().get("compile.cache.hit.sum"), 8.0);
    }
}

// --- Bounded LRU ----------------------------------------------------------

/** Synthetic entries of identical accounted size (same name length,
 *  same inst/stat counts) but distinguishable content, so byte-budget
 *  arithmetic in the tests is exact: budget = K * entry bytes holds
 *  exactly K entries. */
CompileCacheKey
synthKey(uint64_t i)
{
    return {i + 1, 0x5eed};
}

MiddleEndSnapshot
synthSnapshot(uint64_t i)
{
    MiddleEndSnapshot snap;
    snap.optimized.name = "synthetic-lru-entry";
    snap.optimized.insts.resize(4);
    snap.optimized.insts[0].imm = i;
    snap.stats.set("synthetic.id", double(i));
    return snap;
}

TEST(BoundedLru, SnapshotBytesAreContentDeterministic)
{
    const size_t entry = snapshotBytes(synthSnapshot(0));
    ASSERT_GT(entry, 0u);
    // Same content (even rebuilt) accounts the same bytes; the id field
    // changes the content, not the size.
    EXPECT_EQ(snapshotBytes(synthSnapshot(0)), entry);
    EXPECT_EQ(snapshotBytes(synthSnapshot(7)), entry);
    // More payload means more bytes.
    MiddleEndSnapshot bigger = synthSnapshot(0);
    bigger.optimized.insts.resize(8);
    EXPECT_GT(snapshotBytes(bigger), entry);
}

TEST(BoundedLru, ZeroBudgetNeverEvicts)
{
    CompileCache cache; // legacy default: unbounded
    EXPECT_EQ(cache.byteBudget(), 0u);
    for (uint64_t i = 0; i < 32; ++i)
        cache.getOrBuild(synthKey(i), [i] { return synthSnapshot(i); });
    EXPECT_EQ(cache.entryCount(), 32u);
    EXPECT_EQ(cache.evictionCount(), 0u);
}

TEST(BoundedLru, EvictsLeastRecentlyUsedFirst)
{
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(3 * entry);
    for (uint64_t i = 0; i < 3; ++i)
        cache.getOrBuild(synthKey(i), [i] { return synthSnapshot(i); });
    ASSERT_EQ(cache.entryCount(), 3u);
    EXPECT_EQ(cache.evictionCount(), 0u);

    // Touch key 0 (a hit is a recency event), then publish a fourth
    // entry: the untouched key 1 is now least recently used and must be
    // the one evicted — not the oldest-inserted key 0.
    bool hit = false;
    cache.getOrBuild(synthKey(0), [] { return synthSnapshot(0); }, &hit);
    EXPECT_TRUE(hit);
    cache.getOrBuild(synthKey(3), [] { return synthSnapshot(3); });
    EXPECT_EQ(cache.evictionCount(), 1u);
    EXPECT_EQ(cache.entryCount(), 3u);

    int builds = 0;
    auto probe = [&](uint64_t i) {
        bool h = false;
        cache.getOrBuild(
            synthKey(i),
            [&builds, i] {
                ++builds;
                return synthSnapshot(i);
            },
            &h);
        return h;
    };
    EXPECT_TRUE(probe(0)) << "the touched key must survive";
    EXPECT_TRUE(probe(3));
    EXPECT_TRUE(probe(2));
    EXPECT_EQ(builds, 0);
    EXPECT_FALSE(probe(1)) << "the LRU victim must be the untouched key";
    EXPECT_EQ(builds, 1);
}

TEST(BoundedLru, BytesAccountingMatchesPayloads)
{
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(2 * entry);
    EXPECT_EQ(cache.currentBytes(), 0u);

    cache.getOrBuild(synthKey(0), [] { return synthSnapshot(0); });
    EXPECT_EQ(cache.currentBytes(), entry);
    cache.getOrBuild(synthKey(1), [] { return synthSnapshot(1); });
    EXPECT_EQ(cache.currentBytes(), 2 * entry);
    cache.getOrBuild(synthKey(2), [] { return synthSnapshot(2); });
    EXPECT_EQ(cache.currentBytes(), 2 * entry)
        << "the third publish must evict exactly one entry's bytes";
    EXPECT_EQ(cache.evictionCount(), 1u);

    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.bytes"), double(2 * entry));
    EXPECT_EQ(cs.get("cache.budget_bytes"), double(2 * entry));
    EXPECT_EQ(cs.get("cache.evictions"), 1.0);
    EXPECT_EQ(cs.get("cache.entries"), 2.0);

    cache.clear();
    EXPECT_EQ(cache.currentBytes(), 0u);
    EXPECT_EQ(cache.evictionCount(), 0u);
}

TEST(BoundedLru, EntryLargerThanBudgetIsServedThenDropped)
{
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(entry / 2);
    bool hit = true;
    const auto snap = cache.getOrBuild(
        synthKey(0), [] { return synthSnapshot(0); }, &hit);
    EXPECT_FALSE(hit);
    ASSERT_NE(snap, nullptr);
    // The requester's snapshot is intact even though the store already
    // dropped the entry (it can never retain more than the budget).
    EXPECT_EQ(snap->stats.get("synthetic.id"), 0.0);
    EXPECT_EQ(snap->optimized.name, "synthetic-lru-entry");
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.currentBytes(), 0u);
    EXPECT_EQ(cache.evictionCount(), 1u);
}

TEST(BoundedLru, EvictedKeyRebuildsExactlyOnceUnderContention)
{
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(entry); // holds exactly one entry
    cache.getOrBuild(synthKey(7), [] { return synthSnapshot(7); });
    cache.getOrBuild(synthKey(8), [] { return synthSnapshot(8); });
    ASSERT_EQ(cache.evictionCount(), 1u); // key 7 is gone

    // Eight threads re-request the evicted key concurrently: a fresh
    // single-flight build, so exactly one rebuild — and every requester
    // gets a valid clone of it.
    std::atomic<int> rebuilds{0};
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const MiddleEndSnapshot>> got(8);
    for (size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            got[t] = cache.getOrBuild(synthKey(7), [&rebuilds] {
                ++rebuilds;
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                return synthSnapshot(7);
            });
        });
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(rebuilds.load(), 1);
    for (const auto &snap : got) {
        ASSERT_NE(snap, nullptr);
        EXPECT_EQ(snap->stats.get("synthetic.id"), 7.0);
    }
}

TEST(BoundedLru, WaitersSurviveImmediateEviction)
{
    // Budget below one entry: every publish evicts its own entry right
    // after the waiters are released. The waiters' shared_ptr keeps the
    // snapshot alive; nobody observes a dangling or empty result.
    const size_t entry = snapshotBytes(synthSnapshot(0));
    CompileCache cache(entry / 2);
    std::atomic<int> builds{0};
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const MiddleEndSnapshot>> got(8);
    for (size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            got[t] = cache.getOrBuild(synthKey(1), [&builds] {
                ++builds;
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                return synthSnapshot(1);
            });
        });
    for (std::thread &th : threads)
        th.join();
    // Requesters that arrive after an eviction rebuild (a fresh miss),
    // so the build count is 1..8 depending on timing — but every
    // requester must hold valid content, and the store must end empty.
    EXPECT_GE(builds.load(), 1);
    EXPECT_LE(builds.load(), 8);
    for (const auto &snap : got) {
        ASSERT_NE(snap, nullptr);
        EXPECT_EQ(snap->stats.get("synthetic.id"), 1.0);
    }
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.currentBytes(), 0u);
    EXPECT_EQ(cache.evictionCount(), uint64_t(builds.load()));
}

TEST(BoundedLru, EvictionStatsDeterministicAcrossThreadCounts)
{
    // 12 distinct keys, each requested exactly once, budget = 4 entries:
    // published = 12, kept = 4, so evictions = 8 and bytes = 4 * entry
    // no matter how the publishes interleave.
    const size_t entry = snapshotBytes(synthSnapshot(0));
    constexpr uint64_t kKeys = 12;
    constexpr size_t kKeep = 4;
    for (size_t threads : {size_t(1), size_t(2), size_t(8)}) {
        CompileCache cache(kKeep * entry);
        {
            ThreadPool pool(threads);
            for (uint64_t i = 0; i < kKeys; ++i)
                pool.submit([&cache, i](size_t) {
                    cache.getOrBuild(synthKey(i),
                                     [i] { return synthSnapshot(i); });
                });
            pool.wait();
        }
        const StatSet cs = cache.statsSnapshot();
        EXPECT_EQ(cs.get("cache.evictions"), double(kKeys - kKeep))
            << threads;
        EXPECT_EQ(cs.get("cache.bytes"), double(kKeep * entry)) << threads;
        EXPECT_EQ(cs.get("cache.entries"), double(kKeep)) << threads;
        EXPECT_EQ(cs.get("cache.misses"), double(kKeys)) << threads;
        EXPECT_EQ(cs.get("cache.hits"), 0.0) << threads;
    }
}

TEST(BoundedLru, SweepWithTinyBudgetMatchesUncachedSerial)
{
    // Eviction pressure must never change compile results: a budget far
    // below one real snapshot forces a rebuild for effectively every
    // job, and the sweep still matches the uncached serial oracle.
    SweepEngine uncached({1});
    for (SweepJob &job : presetSramGrid())
        uncached.submit(std::move(job));
    const std::vector<SweepResult> &plain = uncached.runAll();

    CompileCache cache(size_t(4) << 10);
    SweepEngine engine({4, &cache});
    for (SweepJob &job : presetSramGrid())
        engine.submit(std::move(job));
    const std::vector<SweepResult> &bounded = engine.runAll();

    EXPECT_GE(cache.evictionCount(), 1u)
        << "the tiny budget must actually evict";
    ASSERT_EQ(bounded.size(), plain.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(bounded[i].platform.machineFingerprint,
                  plain[i].platform.machineFingerprint)
            << plain[i].name;
        EXPECT_DOUBLE_EQ(bounded[i].platform.sim.cycles,
                         plain[i].platform.sim.cycles)
            << plain[i].name;
        EXPECT_EQ(comparableStats(bounded[i].platform.compilerStats),
                  comparableStats(plain[i].platform.compilerStats))
            << plain[i].name;
    }
}

} // namespace
} // namespace effact
