/**
 * @file
 * Cross-stack integration sweeps: every compiler-option combination
 * must produce a program that simulates to completion with consistent
 * invariants, across schemes and design points (parameterized gtest).
 */
#include <gtest/gtest.h>

#include "pass_switches.h"
#include "platform/platform.h"
#include "reference_sim.h"

namespace effact {
namespace {

Workload
tinyWorkload()
{
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 16;
    fhe.dnum = 4;
    return buildBootstrapping(fhe, {256, 2, 2});
}

/** Bitmask over {pre, peephole, schedule, streaming}. */
class OptionMatrix : public ::testing::TestWithParam<int> {};

TEST_P(OptionMatrix, EveryPassComboSimulates)
{
    const int mask = GetParam();
    PassSwitches passes;
    passes.pre = mask & 1;
    passes.peephole = mask & 2;
    CompilerOptions opts;
    opts.pipeline = specFromSwitches(passes);
    opts.scheduler =
        mask & 4 ? Scheduler::CriticalPath : Scheduler::ProgramOrder;
    opts.streaming = mask & 8;
    opts.sramBytes = size_t(8) << 20;

    Workload w = tinyWorkload();
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.sramBytes = opts.sramBytes;
    Platform platform(hw, opts);
    PlatformResult r = platform.run(w);

    EXPECT_GT(r.sim.cycles, 0.0);
    EXPECT_GT(r.sim.instructions, 0u);
    EXPECT_GT(r.sim.dramBytes, 0.0);
    // Utilizations remain physical under every pass combination.
    for (double u : {r.sim.dramUtil, r.sim.nttUtil, r.sim.mulAddUtil,
                     r.sim.autoUtil}) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0 + 1e-9);
    }

    // The event-driven issue core must reproduce the legacy rescan
    // loop under every pass combination.
    Workload w2 = tinyWorkload();
    Compiler compiler(opts);
    MachineProgram mp = compiler.compile(w2.program);
    SimReport ev = Simulator(hw).run(mp);
    SimReport ref = referenceSimulate(hw, mp);
    EXPECT_DOUBLE_EQ(ev.cycles, ref.cycles);
    EXPECT_DOUBLE_EQ(ev.dramBytes, ref.dramBytes);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, OptionMatrix, ::testing::Range(0, 16));

/** Optimizations must never *increase* simulated time materially. */
TEST(Integration, FullOptionsNeverSlowerThanBaseline)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.sramBytes = size_t(8) << 20;
    Workload w1 = tinyWorkload();
    Platform base(hw, Platform::baselineOptions(hw.sramBytes));
    auto rb = base.run(w1);
    Workload w2 = tinyWorkload();
    Platform full(hw, Platform::fullOptions(hw.sramBytes));
    auto rf = full.run(w2);
    EXPECT_LE(rf.sim.cycles, rb.sim.cycles * 1.02);
    EXPECT_LE(rf.dramGb, rb.dramGb * 1.02);
}

/** DRAM traffic is invariant to clock frequency; time is not. */
TEST(Integration, FrequencyScalesTimeNotTraffic)
{
    Workload w = tinyWorkload();
    Compiler compiler;
    MachineProgram mp = compiler.compile(w.program);

    HardwareConfig hw = HardwareConfig::asicEffact27();
    SimReport a = Simulator(hw).run(mp);
    hw.freqGhz = 1.0; // same cycles/byte budget per cycle halves
    SimReport b = Simulator(hw).run(mp);
    // Same bytes moved regardless of clock.
    EXPECT_DOUBLE_EQ(a.dramBytes, b.dramBytes);
    // Wall-clock improves with frequency (not fully linearly: the HBM
    // contributes a frequency-independent floor).
    EXPECT_LT(b.timeMs, a.timeMs);
}

/** All design points run all CKKS benchmarks to completion. */
class DesignPoints : public ::testing::TestWithParam<int> {};

TEST_P(DesignPoints, RunsReducedBootstrapping)
{
    HardwareConfig hw;
    switch (GetParam()) {
      case 0: hw = HardwareConfig::asicEffact27(); break;
      case 1: hw = HardwareConfig::asicEffact54(); break;
      case 2: hw = HardwareConfig::asicEffact108(); break;
      case 3: hw = HardwareConfig::asicEffact162(); break;
      default: hw = HardwareConfig::fpgaEffact(); break;
    }
    Workload w = tinyWorkload();
    Platform p(hw, Platform::fullOptions(hw.sramBytes));
    PlatformResult r = p.run(w);
    EXPECT_GT(r.benchTimeMs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Configs, DesignPoints, ::testing::Range(0, 5));

} // namespace
} // namespace effact
