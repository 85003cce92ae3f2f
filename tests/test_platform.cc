/**
 * @file
 * Platform end-to-end tests: the Fig. 11 ablation ordering, the Fig. 10
 * scaling trend, Fig. 4 SRAM-sweep monotonicity, and the area/power
 * model against Table IV / Table V.
 */
#include <gtest/gtest.h>

#include <chrono>

#include "compiler/compile_cache.h"
#include "model/area_power.h"
#include "model/baselines.h"
#include "model/efficiency.h"
#include "platform/platform.h"

namespace effact {
namespace {

/** A reduced-size bootstrapping for fast platform tests. */
Workload
smallBoot()
{
    FheParams fhe;
    fhe.logN = 15;
    fhe.levels = 16;
    fhe.dnum = 4;
    return buildBootstrapping(fhe, {size_t(1) << 14, 3, 2});
}

/** The four Fig. 11 design points, shared by the ordering and the
 *  wall-clock regression test so they cannot drift apart. */
struct AblationConfig
{
    const char *name;
    CompilerOptions opts;
    bool macReuse;
};

std::vector<AblationConfig>
ablationConfigs(size_t sram_bytes)
{
    return {
        {"baseline", Platform::baselineOptions(sram_bytes), false},
        {"MAD-enhanced", Platform::madEnhancedOptions(sram_bytes), false},
        {"streaming", Platform::streamingOptions(sram_bytes), false},
        {"full", Platform::fullOptions(sram_bytes), true},
    };
}

/** Compile + simulate smallBoot() under one ablation design point. */
PlatformResult
runAblation(const HardwareConfig &hw, const AblationConfig &config)
{
    HardwareConfig cfg = hw;
    cfg.nttMacReuse = config.macReuse;
    Workload w = smallBoot();
    Platform p(cfg, config.opts);
    return p.run(w);
}

TEST(Platform, AblationOrderingMatchesFig11)
{
    // baseline >= MAD-enhanced >= +streaming/scheduling >= full EFFACT,
    // in both DRAM transfer and runtime (Fig. 11's four bars). The test
    // workload is a reduced bootstrapping (logN=15, L=16), so the SRAM
    // is reduced proportionally to stay in the resource-constrained
    // regime Fig. 11 studies (27 MB at N=2^16, L=24).
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.sramBytes = size_t(6) << 20;
    auto configs = ablationConfigs(hw.sramBytes);
    ASSERT_EQ(configs.size(), 4u);

    auto base = runAblation(hw, configs[0]);
    auto mad = runAblation(hw, configs[1]);
    auto stream = runAblation(hw, configs[2]);
    auto full = runAblation(hw, configs[3]);

    EXPECT_GE(base.dramGb, mad.dramGb * 0.999);
    EXPECT_GT(mad.dramGb, stream.dramGb);
    EXPECT_GE(stream.dramGb, full.dramGb * 0.999);

    EXPECT_GT(base.benchTimeMs, stream.benchTimeMs);
    EXPECT_GE(stream.benchTimeMs, full.benchTimeMs * 0.98);
}

TEST(Platform, AblationConfigsCompileWithinBudget)
{
    // Regression guard for the Fig. 11 bring-up hang: the scheduler once
    // re-evaluated liveCount() (an O(n) scan) in its main-loop condition,
    // turning compilation of the ~80k-instruction reduced bootstrapping
    // quadratic (>10 s per scheduled config; minutes at -O0). Each of the
    // four ablation configurations must now compile + simulate well under
    // a wall-clock budget that the quadratic path cannot meet.
#ifdef EFFACT_RELAXED_TIMING // sanitized/Debug CI builds
    constexpr double kBudgetSecs = 120.0;
#else
    constexpr double kBudgetSecs = 5.0;
#endif
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.sramBytes = size_t(6) << 20;
    for (const AblationConfig &c : ablationConfigs(hw.sramBytes)) {
        auto t0 = std::chrono::steady_clock::now();
        auto r = runAblation(hw, c);
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - t0;
        EXPECT_LT(elapsed.count(), kBudgetSecs) << c.name;
        EXPECT_GT(r.benchTimeMs, 0.0) << c.name;
    }
}

TEST(Platform, LayerTimersCloseOnJobTotal)
{
    // Every host millisecond of `Platform::run` belongs to a layer: the
    // four `job.*.ms` layer timers sum to `job.total.ms`.
    Workload w = smallBoot();
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    const PlatformResult r =
        Platform(hw, Platform::fullOptions(hw.sramBytes)).run(w);
    const StatSet &job = r.jobStats;
    ASSERT_TRUE(job.has("job.total.ms"));
    const double total = job.get("job.total.ms");
    const double layers = job.get("job.middle.ms") +
                          job.get("job.backend.ms") + job.get("job.sim.ms") +
                          job.get("job.fingerprint.ms");
    EXPECT_GT(total, 0.0);
    EXPECT_NEAR(layers, total, 0.01 * total);
}

TEST(Platform, SharedCompileCacheAcrossHardwarePointsIsTransparent)
{
    // An SRAM sweep of one (workload, preset) through Platform::run
    // with a shared cache: the first point builds the middle-end
    // snapshot, every further point reuses it, and each point's result
    // is identical to its uncached run.
    const auto configs = ablationConfigs(size_t(6) << 20);
    const CompilerOptions opts = configs.back().opts; // full preset
    const std::vector<size_t> sram_points = {
        size_t(6) << 20, size_t(3) << 20, size_t(12) << 20};

    CompileCache cache;
    for (size_t i = 0; i < sram_points.size(); ++i) {
        HardwareConfig hw = HardwareConfig::asicEffact27();
        hw.sramBytes = sram_points[i];
        CompilerOptions copts = opts;
        copts.sramBytes = sram_points[i];
        Platform platform(hw, copts);

        Workload cached_w = smallBoot();
        const PlatformResult cached = platform.run(cached_w, &cache);
        EXPECT_EQ(cached.compilerStats.get("cache.hit"), i == 0 ? 0.0
                                                                : 1.0);

        Workload plain_w = smallBoot();
        const PlatformResult plain = platform.run(plain_w);
        EXPECT_EQ(cached.machineFingerprint, plain.machineFingerprint);
        EXPECT_DOUBLE_EQ(cached.sim.cycles, plain.sim.cycles);
        EXPECT_DOUBLE_EQ(cached.dramGb, plain.dramGb);
    }
    const StatSet cs = cache.statsSnapshot();
    EXPECT_EQ(cs.get("cache.lookups"), 3.0);
    EXPECT_EQ(cs.get("cache.misses"), 1.0);
    EXPECT_EQ(cs.get("cache.hits"), 2.0);
}

TEST(Platform, ScalingUpResourcesHelps)
{
    // Fig. 10: EFFACT-54/108/162 speed up over EFFACT-27.
    Workload w27 = smallBoot();
    Platform p27(HardwareConfig::asicEffact27(),
                 Platform::fullOptions(HardwareConfig::asicEffact27()
                                           .sramBytes));
    auto r27 = p27.run(w27);

    Workload w108 = smallBoot();
    Platform p108(HardwareConfig::asicEffact108(),
                  Platform::fullOptions(HardwareConfig::asicEffact108()
                                            .sramBytes));
    auto r108 = p108.run(w108);

    EXPECT_LT(r108.benchTimeMs, r27.benchTimeMs);
}

TEST(Platform, SramSweepReducesDramTraffic)
{
    // Fig. 4: larger SRAM -> fewer spills -> less DRAM traffic and
    // shorter runtime, saturating past the working set.
    double prev_dram = 1e300;
    for (size_t mb : {8, 27, 108}) {
        HardwareConfig hw = HardwareConfig::asicEffact27();
        hw.sramBytes = mb << 20;
        Workload w = smallBoot();
        Platform p(hw, Platform::fullOptions(hw.sramBytes));
        auto r = p.run(w);
        EXPECT_LE(r.dramGb, prev_dram * 1.001) << mb << " MB";
        prev_dram = r.dramGb;
    }
}

TEST(Model, Table4BreakdownReproduced)
{
    ChipCost cost = estimateAsic(HardwareConfig::asicEffact27());
    // Calibration must reproduce the published totals.
    EXPECT_NEAR(cost.totalAreaMm2, 211.9, 3.0);
    EXPECT_NEAR(cost.totalPowerW, 135.7, 3.0);
    double sram_area = 0;
    for (const auto &c : cost.components)
        if (c.name == "SRAM")
            sram_area = c.areaMm2;
    EXPECT_NEAR(sram_area / cost.totalAreaMm2, 0.3846, 0.02);
}

TEST(Model, Table5AreaRatiosReproduced)
{
    // ASIC-EFFACT area over scaled baselines (Table V narrative):
    // 0.783x F1, 0.153x BTS, 0.257x CraterLake, 0.137x ARK.
    const double effact_area = estimateAsic(
        HardwareConfig::asicEffact27()).totalAreaMm2;
    struct Row { const char *name; double expect; };
    for (const Row &row : {Row{"F1", 0.783}, Row{"BTS", 0.153},
                           Row{"CraterLake", 0.257}, Row{"ARK", 0.137}}) {
        double ratio = effact_area / baseline(row.name).scaledAreaMm2();
        EXPECT_NEAR(ratio, row.expect, row.expect * 0.25) << row.name;
    }
}

TEST(Model, EfficiencyNormalization)
{
    std::vector<EfficiencyPoint> pts = {
        {"F1", 10.0, 100.0, 50.0},
        {"X", 5.0, 100.0, 50.0},  // 2x faster, same cost
        {"Y", 10.0, 50.0, 25.0},  // same speed, half cost
    };
    auto density = perfDensityNormalized(pts);
    auto power = powerEfficiencyNormalized(pts);
    EXPECT_DOUBLE_EQ(density[0], 1.0);
    EXPECT_DOUBLE_EQ(density[1], 2.0);
    EXPECT_DOUBLE_EQ(density[2], 2.0);
    EXPECT_DOUBLE_EQ(power[1], 2.0);
    EXPECT_DOUBLE_EQ(power[2], 2.0);
    EXPECT_NEAR(gmean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Model, FpgaResourceEstimateMatchesTable6)
{
    FpgaResources r = estimateFpga(HardwareConfig::fpgaEffact());
    EXPECT_NEAR(r.lut, 1246e3, 1e3);
    EXPECT_NEAR(r.dsp, 8212, 1);
    EXPECT_NEAR(r.bram, 1343, 2);
}

TEST(Platform, FpgaSlowerThanAsic)
{
    Workload wa = smallBoot();
    Platform pa(HardwareConfig::asicEffact27(),
                Platform::fullOptions(
                    HardwareConfig::asicEffact27().sramBytes));
    auto ra = pa.run(wa);

    Workload wf = smallBoot();
    Platform pf(HardwareConfig::fpgaEffact(),
                Platform::fullOptions(
                    HardwareConfig::fpgaEffact().sramBytes));
    auto rf = pf.run(wf);
    EXPECT_GT(rf.benchTimeMs, ra.benchTimeMs);
}

} // namespace
} // namespace effact
