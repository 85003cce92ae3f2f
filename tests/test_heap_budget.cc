/**
 * @file
 * Live-heap budget of two bootstrapping jobs (logN 16, L 24,
 * ASIC-EFFACT-27), phase by phase: IR build, middle end, back end,
 * simulate. One is the paper job (`full` preset, 27 MB of SRAM); the
 * other is the longest machine program the dse-service benchmark
 * compiles (`baseline` preset, 13 MB). This executable replaces the
 * global `operator new`/`delete` with a counting pair that keeps each
 * block's requested size in a header, so the figures are the bytes the
 * program asked for, independent of the allocator's rounding. Each
 * phase's peak is the most bytes live at once during it, counted from
 * the live bytes before the job.
 *
 * The budgets are the peaks recorded in bench/NOTES.md plus 5%: IR
 * build and middle end from "A 40-byte `IrInst` and compaction between
 * sweeps", back end and simulate from "A 40-byte `MachInst`" (for the
 * `baseline` job, from "The middle end's output holds exactly its
 * instructions"). The
 * process's peak RSS follows the largest of them; the perf lane's
 * `sim_speed.peak_rss_mb` sees only part of a job, so it cannot pin
 * them.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "compiler/pass_manager.h"
#include "ir/workloads.h"
#include "platform/platform.h"
#include "sim/machine.h"

namespace {

/** Header in front of every block: the requested size, padded so the
 *  returned pointer keeps `malloc`'s alignment. */
constexpr size_t kHeader = alignof(std::max_align_t);

std::atomic<size_t> g_live{0};
std::atomic<size_t> g_peak{0};

void *
countedAlloc(size_t size) noexcept
{
    if (size > SIZE_MAX - kHeader)
        return nullptr;
    void *block = std::malloc(size + kHeader);
    if (block == nullptr)
        return nullptr;
    *static_cast<size_t *>(block) = size;
    const size_t live =
        g_live.fetch_add(size, std::memory_order_relaxed) + size;
    size_t peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak.compare_exchange_weak(peak, live,
                                         std::memory_order_relaxed))
        ;
    return static_cast<char *>(block) + kHeader;
}

void
countedFree(void *ptr) noexcept
{
    if (ptr == nullptr)
        return;
    void *block = static_cast<char *>(ptr) - kHeader;
    g_live.fetch_sub(*static_cast<size_t *>(block),
                     std::memory_order_relaxed);
    std::free(block);
}

void *
countedNew(size_t size)
{
    void *ptr = countedAlloc(size == 0 ? 1 : size);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}

} // namespace

void *operator new(size_t size) { return countedNew(size); }
void *operator new[](size_t size) { return countedNew(size); }
void *
operator new(size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size == 0 ? 1 : size);
}
void *
operator new[](size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size == 0 ? 1 : size);
}
void operator delete(void *ptr) noexcept { countedFree(ptr); }
void operator delete[](void *ptr) noexcept { countedFree(ptr); }
void operator delete(void *ptr, size_t) noexcept { countedFree(ptr); }
void operator delete[](void *ptr, size_t) noexcept { countedFree(ptr); }
void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    countedFree(ptr);
}
void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    countedFree(ptr);
}

namespace effact {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/** Runs `phase` and returns its peak live heap in MiB, counted from
 *  `base` bytes. */
template <typename PhaseFn>
double
phasePeakMiB(size_t base, PhaseFn &&phase)
{
    g_peak.store(g_live.load());
    phase();
    return double(g_peak.load() - base) / kMiB;
}

/** One job's per-phase live-heap peaks, in MiB, and its identity. */
struct JobPeaks
{
    double irBuild = 0, middle = 0, back = 0, simulate = 0;
    size_t irInsts = 0;      ///< optimized IR instructions
    size_t machineInsts = 0; ///< emitted machine instructions
    long long cycles = 0;
};

/** Runs bootstrapping at the paper point (logN 16, L 24) on `hw` under
 *  `opts`, phase by phase, and prints the peaks under `name`. */
JobPeaks
measureBootstrapJob(const char *name, const HardwareConfig &hw,
                    const CompilerOptions &opts)
{
    const Compiler compiler(opts);
    const size_t base = g_live.load();

    Workload workload;
    MachineProgram program;
    SimReport report;
    JobPeaks peaks;
    peaks.irBuild = phasePeakMiB(
        base, [&] { workload = buildBootstrapping(FheParams{}); });
    peaks.middle = phasePeakMiB(base, [&] {
        AnalysisManager analyses;
        StatSet stats;
        compiler.runMiddleEnd(workload.program, analyses, stats);
    });
    peaks.back = phasePeakMiB(base, [&] {
        AnalysisManager analyses;
        StatSet stats;
        program = compiler.runBackEnd(workload.program, analyses, stats);
    });
    peaks.simulate =
        phasePeakMiB(base, [&] { report = Simulator(hw).run(program); });
    peaks.irInsts = workload.program.insts.size();
    peaks.machineInsts = program.insts.size();
    peaks.cycles = std::llround(report.cycles);
    std::printf("%s live-heap peak, MiB: IR build %.2f, middle end %.2f, "
                "back end %.2f, simulate %.2f (%zu machine instructions, "
                "%.1f MiB of machine code, %lld cycles)\n",
                name, peaks.irBuild, peaks.middle, peaks.back,
                peaks.simulate, peaks.machineInsts,
                double(peaks.machineInsts * sizeof(MachInst)) / kMiB,
                peaks.cycles);
    return peaks;
}

constexpr double kSlack = 1.05;

TEST(HeapBudget, PaperJobPhasesStayWithinRecordedPeaks)
{
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    const JobPeaks p = measureBootstrapJob(
        "paper job:", hw, Platform::fullOptions(hw.sramBytes));

    // The job is the paper-scale one the budgets were recorded on.
    ASSERT_EQ(p.irInsts, 98636u);
    ASSERT_EQ(p.machineInsts, 149620u);
    ASSERT_EQ(p.cycles, 12319059);

    EXPECT_LE(p.irBuild, 30.0 * kSlack);
    EXPECT_LE(p.middle, 29.2 * kSlack);
    EXPECT_LE(p.back, 14.1 * kSlack);
    EXPECT_LE(p.simulate, 12.6 * kSlack);
    // The IR vector's doubling (20 MiB of capacity for 10.3 MiB of
    // instructions) sets the job's peak again.
    EXPECT_LT(p.simulate, p.irBuild);
}

TEST(HeapBudget, LargestServiceProgramStaysWithinRecordedPeaks)
{
    // The largest program the dse-service benchmark compiles:
    // bootstrapping under the baseline preset with 13 MB of SRAM, where
    // spill traffic makes the machine program longest.
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.sramBytes = size_t(13) << 20;
    const JobPeaks p = measureBootstrapJob(
        "baseline/13 MB:", hw, Platform::baselineOptions(hw.sramBytes));

    ASSERT_EQ(p.machineInsts, 473309u);
    ASSERT_EQ(p.cycles, 50529302);

    // The empty pipeline kills nothing, and the middle end's compaction
    // still drops the builder's spare capacity (a 30.3 MiB transient
    // while it copies), so neither phase below keeps the 20 MiB buffer.
    EXPECT_LE(p.back, 36.3 * kSlack);
    EXPECT_LE(p.simulate, 35.6 * kSlack);
}

} // namespace
} // namespace effact
