/**
 * @file
 * Live-heap budget of one paper-scale job (bootstrapping, logN 16,
 * L 24, ASIC-EFFACT-27, `full` preset), phase by phase: IR build,
 * middle end, back end, simulate. This executable replaces the global
 * `operator new`/`delete` with a counting pair that keeps each block's
 * requested size in a header, so the figures are the bytes the program
 * asked for, independent of the allocator's rounding. Each phase's
 * peak is the most bytes live at once during it, counted from the
 * live bytes before the job.
 *
 * The budgets are the peaks recorded in bench/NOTES.md plus 5%: IR
 * build, middle end and back end from "A 40-byte `IrInst` and
 * compaction between sweeps", simulate from "Simulating inside the
 * scoreboard window". The process's peak RSS follows the largest of
 * them; the perf lane's `sim_speed.peak_rss_mb` sees only part of a
 * job, so it cannot pin them.
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

TEST(HeapBudget, PaperJobPhasesStayWithinRecordedPeaks)
{
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    const Platform platform(hw, Platform::fullOptions(hw.sramBytes));
    const Compiler compiler(platform.compilerOptions());
    const size_t base = g_live.load();

    Workload workload;
    MachineProgram program;
    SimReport report;
    const double ir_build = phasePeakMiB(
        base, [&] { workload = buildBootstrapping(FheParams{}); });
    const double middle = phasePeakMiB(base, [&] {
        AnalysisManager analyses;
        StatSet stats;
        compiler.runMiddleEnd(workload.program, analyses, stats);
    });
    const double back = phasePeakMiB(base, [&] {
        AnalysisManager analyses;
        StatSet stats;
        program = compiler.runBackEnd(workload.program, analyses, stats);
    });
    const double simulate =
        phasePeakMiB(base, [&] { report = Simulator(hw).run(program); });
    std::printf("live-heap peak, MiB: IR build %.2f, middle end %.2f, "
                "back end %.2f, simulate %.2f (%zu machine instructions, "
                "%.0f cycles)\n",
                ir_build, middle, back, simulate, program.insts.size(),
                report.cycles);

    // The job is the paper-scale one the budgets were recorded on.
    ASSERT_EQ(workload.program.insts.size(), 98636u);
    ASSERT_EQ(program.insts.size(), 149620u);
    ASSERT_EQ(std::llround(report.cycles), 12319059);

    constexpr double kSlack = 1.05;
    EXPECT_LE(ir_build, 30.0 * kSlack);
    EXPECT_LE(middle, 29.2 * kSlack);
    EXPECT_LE(back, 24.1 * kSlack);
    EXPECT_LE(simulate, 20.5 * kSlack);
    // The IR vector's doubling (20 MiB of capacity for 10.3 MiB of
    // instructions) sets the job's peak again.
    EXPECT_LT(simulate, ir_build);
}

} // namespace
} // namespace effact
