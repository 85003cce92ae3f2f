/**
 * @file
 * Paper-scale integration sweeps (logN = 16, L = 24 — the Table III
 * operating point): compile-and-simulate at full size across pass
 * combinations and design points, and pin the event-driven simulator
 * against the legacy rescan loop on the full bootstrapping trace.
 *
 * The option-corner and design-point sweeps run as one `runSweep`
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
#include "reference_pre.h"
#include "reference_sim.h"
#include "runtime/sweep.h"

namespace effact {
namespace {

FheParams
paperFhe()
{
    return FheParams{}; // logN=16, L=24, dnum=4
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

/**
 * PRE against the reference map scan at the scale where the scan's
 * lookahead pays (an 8 MiB table and a 10 MiB IR): the paper job
 * through the `full` and `optimized` pipelines, compared at every PRE
 * step of the fixed point.
 */
TEST(PaperScale, PreMatchesReferenceOnPaperJob)
{
    const Workload w = buildBootstrapping(paperFhe());
    const size_t sram = HardwareConfig::asicEffact27().sramBytes;
    for (const CompilerOptions &opts :
         {Platform::fullOptions(sram), Platform::optimizedOptions(sram)})
        EXPECT_GE(expectPreMatchesReference(w.program, opts.pipeline,
                                            opts.pipeline),
                  2u);
}

/**
 * The full and optimized presets on the paper trace: the event core
 * matches the legacy loop, and the compacted IR and the emitted machine
 * program each hold exactly their contents.
 */
TEST(PaperScale, EventCoreMatchesLegacyLoopOnFullTrace)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    for (const CompilerOptions &opts :
         {Platform::fullOptions(hw.sramBytes),
          Platform::optimizedOptions(hw.sramBytes)}) {
        Workload w = buildBootstrapping(paperFhe());
        Compiler compiler(opts);
        MachineProgram mp = compiler.compile(w.program);
        EXPECT_EQ(w.program.insts.capacity(), w.program.insts.size());
        EXPECT_EQ(mp.insts.capacity(), mp.insts.size());

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
TEST(PaperScale, RunSweepRunsCornersAndDesignPoints)
{
    std::vector<SweepJob> jobs;

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
        jobs.push_back({"corner" + std::to_string(mask),
                        [] { return buildBootstrapping(paperFhe()); },
                        hw27, opts});
    }

    const std::vector<HardwareConfig> configs = {
        HardwareConfig::asicEffact27(), HardwareConfig::asicEffact54(),
        HardwareConfig::asicEffact108(), HardwareConfig::asicEffact162(),
        HardwareConfig::fpgaEffact()};
    for (const HardwareConfig &hw : configs)
        jobs.push_back({hw.name,
                        [] { return buildBootstrapping(paperFhe()); }, hw,
                        Platform::fullOptions(hw.sramBytes)});

    const std::vector<PlatformResult> results =
        runSweep(jobs, defaultThreadCount());
    ASSERT_EQ(results.size(), corners.size() + configs.size());
    for (size_t i = 0; i < results.size(); ++i) {
        const PlatformResult &r = results[i];
        const std::string &name = jobs[i].name;
        EXPECT_GT(r.sim.cycles, 0.0) << name;
        EXPECT_GT(r.benchTimeMs, 0.0) << name;
        EXPECT_NE(r.machineFingerprint, 0u) << name;
        for (double u : {r.sim.dramUtil, r.sim.nttUtil, r.sim.mulAddUtil,
                         r.sim.autoUtil}) {
            EXPECT_GE(u, 0.0) << name;
            EXPECT_LE(u, 1.0 + 1e-9) << name;
        }
    }
}

} // namespace
} // namespace effact
