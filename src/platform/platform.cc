#include "platform/platform.h"

#include <chrono>

#include "compiler/pass_manager.h"

namespace effact {

Platform::Platform(HardwareConfig hw, CompilerOptions copts)
    : hw_(std::move(hw)), copts_(copts)
{
    copts_.sramBytes = hw_.sramBytes;
    copts_.issueWindow = hw_.issueWindow;
    copts_.lanes = hw_.lanes;
    copts_.hbmBytesPerCycle = hw_.hbmBytesPerCycle();
}

PlatformResult
Platform::run(Workload &workload, CompileCache *cache) const
{
    using Clock = std::chrono::steady_clock;
    using Ms = std::chrono::duration<double, std::milli>;

    const Compiler compiler(copts_);
    PlatformResult result;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t1;
    MachineProgram mp;
    {
        // The scheduler's analyses (the IR DepGraph, the alias edges)
        // are dead once the back end returns: free them before the
        // simulator and the fingerprint run.
        AnalysisManager analyses;
        compiler.runMiddleEnd(workload.program, analyses,
                              result.compilerStats, cache);
        t1 = Clock::now();
        mp = compiler.runBackEnd(workload.program, analyses,
                                 result.compilerStats);
    }
    const Clock::time_point t2 = Clock::now();
    result.sim = Simulator(hw_).run(mp);
    const Clock::time_point t3 = Clock::now();

    result.benchTimeMs = result.sim.timeMs * workload.repeat;
    result.amortizedUs =
        result.benchTimeMs * 1e3 / workload.amortizeFactor;
    result.dramGb = result.sim.dramBytes * workload.repeat / 1e9;
    result.machineFingerprint = fingerprint(mp);
    const Clock::time_point t4 = Clock::now();
    result.jobStats.set("job.middle.ms", Ms(t1 - t0).count());
    result.jobStats.set("job.backend.ms", Ms(t2 - t1).count());
    result.jobStats.set("job.sim.ms", Ms(t3 - t2).count());
    result.jobStats.set("job.fingerprint.ms", Ms(t4 - t3).count());
    result.jobStats.set("job.total.ms", Ms(t4 - t0).count());
    return result;
}

// Each Fig. 11 design point is one declarative pipeline spec plus its
// back-end policies.

CompilerOptions
Platform::baselineOptions(size_t sram_bytes)
{
    CompilerOptions o;
    o.pipeline = "";
    o.scheduler = Scheduler::ProgramOrder;
    o.streaming = false;
    o.sramBytes = sram_bytes;
    return o;
}

CompilerOptions
Platform::madEnhancedOptions(size_t sram_bytes)
{
    // MAD's caching keeps reused data on chip (PRE models the reuse of
    // keys/constants) but schedules data paths by hand within HE
    // primitives: no global scheduling or streaming.
    CompilerOptions o;
    o.pipeline = "copyprop,constprop,pre";
    o.scheduler = Scheduler::ProgramOrder;
    o.streaming = false;
    o.sramBytes = sram_bytes;
    return o;
}

CompilerOptions
Platform::streamingOptions(size_t sram_bytes)
{
    CompilerOptions o;
    o.pipeline = "copyprop,constprop,pre";
    o.scheduler = Scheduler::CriticalPath;
    o.streaming = true;
    o.sramBytes = sram_bytes;
    return o;
}

CompilerOptions
Platform::fullOptions(size_t sram_bytes)
{
    CompilerOptions o;
    o.pipeline = "copyprop,constprop,pre,peephole";
    o.sramBytes = sram_bytes;
    return o;
}

CompilerOptions
Platform::optimizedOptions(size_t sram_bytes)
{
    // rotalg runs before PRE so composed rotations are canonical when
    // value numbering looks for duplicates; the fixed point re-runs the
    // sequence anyway, so the order only affects sweep count.
    CompilerOptions o;
    o.pipeline = "copyprop,constprop,rotalg,pre,peephole";
    o.regalloc = RegAllocPolicy::Priority;
    o.scheduler = Scheduler::Latency;
    o.sramBytes = sram_bytes;
    return o;
}

} // namespace effact
