/**
 * @file
 * Paper-scale integration sweeps (logN = 16, L = 24 — the Table III
 * operating point): compile-and-simulate at full size across pass
 * combinations and design points, and pin the event-driven simulator
 * against the legacy rescan loop on the full bootstrapping trace.
 *
 * The option-corner and design-point sweeps run as one `SweepEngine`
 * batch at `EFFACT_THREADS` workers (default: hardware concurrency;
 * set it to 1 for the serial path), which is both the paper-scale
 * soak test of the batch runtime and a large CI wall-clock win.
 *
 * Registered with the `slow` CTest label and configuration so the
 * default `ctest` run stays fast: run with `ctest -C slow -L slow`.
 */
#include <gtest/gtest.h>

#include "pass_switches.h"
#include "platform/platform.h"
#include "reference_sim.h"
#include "runtime/sweep.h"

namespace effact {
namespace {

FheParams
paperFhe()
{
    return FheParams{}; // logN=16, L=24, dnum=4, lanes=1024
}

TEST(PaperScale, BootstrappingCompilesAndSimulates)
{
    Workload w = buildBootstrapping(paperFhe());
    HardwareConfig hw = HardwareConfig::asicEffact27();
    Platform platform(hw, Platform::fullOptions(hw.sramBytes));
    PlatformResult r = platform.run(w);

    // Paper-scale programs are ~100k+ machine instructions.
    EXPECT_GT(r.sim.instructions, size_t(50) << 10);
    EXPECT_GT(r.sim.cycles, 0.0);
    EXPECT_GT(r.amortizedUs, 0.0);
    for (double u : {r.sim.dramUtil, r.sim.nttUtil, r.sim.mulAddUtil,
                     r.sim.autoUtil}) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0 + 1e-9);
    }
}

TEST(PaperScale, EventCoreMatchesLegacyLoopOnFullTrace)
{
    Workload w = buildBootstrapping(paperFhe());
    HardwareConfig hw = HardwareConfig::asicEffact27();
    Compiler compiler(Platform::fullOptions(hw.sramBytes));
    MachineProgram mp = compiler.compile(w.program);

    Simulator sim(hw);
    SimReport ev = sim.run(mp);
    SimReport ref = referenceSimulate(hw, mp);
    EXPECT_DOUBLE_EQ(ev.cycles, ref.cycles);
    EXPECT_DOUBLE_EQ(ev.dramBytes, ref.dramBytes);
    EXPECT_DOUBLE_EQ(ev.dramUtil, ref.dramUtil);
    EXPECT_DOUBLE_EQ(ev.nttUtil, ref.nttUtil);
    EXPECT_DOUBLE_EQ(ev.mulAddUtil, ref.mulAddUtil);
    EXPECT_DOUBLE_EQ(ev.autoUtil, ref.autoUtil);
}

/**
 * The un-optimized corner (no PRE/peephole/scheduling/streaming) takes
 * a very different path through codegen and the issue core than the
 * full-options trace above; pin it against the legacy loop too. The
 * remaining corners are covered at small scale by the randomized
 * differential harness (test_fuzz_differential).
 */
TEST(PaperScale, EventCoreMatchesLegacyLoopOnUnoptimizedTrace)
{
    CompilerOptions opts;
    opts.pipeline = "copyprop,constprop";
    opts.scheduler = Scheduler::ProgramOrder;
    opts.streaming = false;
    Workload w = buildBootstrapping(paperFhe());
    Compiler compiler(opts);
    MachineProgram mp = compiler.compile(w.program);
    HardwareConfig hw = HardwareConfig::asicEffact27();
    SimReport ev = Simulator(hw).run(mp);
    SimReport ref = referenceSimulate(hw, mp);
    EXPECT_GT(ev.cycles, 0.0);
    EXPECT_DOUBLE_EQ(ev.cycles, ref.cycles);
    EXPECT_DOUBLE_EQ(ev.dramBytes, ref.dramBytes);
}

/**
 * The full paper-scale grid as one batch: every ablation corner of
 * {pre, peephole, schedule, streaming} on ASIC-EFFACT-27, plus full
 * bootstrapping on every design point. Corner jobs must match the
 * legacy rescan loop; every job must complete with sane utilization.
 */
TEST(PaperScale, SweepEngineRunsCornersAndDesignPoints)
{
    SweepEngine engine({defaultThreadCount()});

    // The corners: baseline, each axis alone, and everything on.
    const std::vector<int> corners = {0, 1, 2, 4, 8, 15};
    HardwareConfig hw27 = HardwareConfig::asicEffact27();
    for (int mask : corners) {
        PassSwitches passes;
        passes.pre = mask & 1;
        passes.peephole = mask & 2;
        CompilerOptions opts;
        opts.pipeline = specFromSwitches(passes);
        opts.scheduler =
            mask & 4 ? Scheduler::CriticalPath : Scheduler::ProgramOrder;
        opts.streaming = mask & 8;
        engine.submit("corner" + std::to_string(mask),
                      [] { return buildBootstrapping(paperFhe()); }, hw27,
                      opts);
    }

    const std::vector<HardwareConfig> configs = {
        HardwareConfig::asicEffact27(), HardwareConfig::asicEffact54(),
        HardwareConfig::asicEffact108(), HardwareConfig::asicEffact162(),
        HardwareConfig::fpgaEffact()};
    for (const HardwareConfig &hw : configs)
        engine.submit(hw.name,
                      [] { return buildBootstrapping(paperFhe()); }, hw,
                      Platform::fullOptions(hw.sramBytes));

    const std::vector<SweepResult> &results = engine.runAll();
    ASSERT_EQ(results.size(), corners.size() + configs.size());
    for (const SweepResult &r : results) {
        EXPECT_GT(r.platform.sim.cycles, 0.0) << r.name;
        EXPECT_GT(r.platform.benchTimeMs, 0.0) << r.name;
        EXPECT_NE(r.platform.machineFingerprint, 0u) << r.name;
        for (double u :
             {r.platform.sim.dramUtil, r.platform.sim.nttUtil,
              r.platform.sim.mulAddUtil, r.platform.sim.autoUtil}) {
            EXPECT_GE(u, 0.0) << r.name;
            EXPECT_LE(u, 1.0 + 1e-9) << r.name;
        }
    }
    // Aggregates cover the whole batch.
    const StatSet &agg = engine.aggregates();
    EXPECT_EQ(agg.get("sweep.jobs"),
              double(corners.size() + configs.size()));
    EXPECT_EQ(agg.get("platform.cycles.count"),
              double(corners.size() + configs.size()));
    EXPECT_GE(agg.get("platform.cycles.max"),
              agg.get("platform.cycles.min"));
}

} // namespace
} // namespace effact
