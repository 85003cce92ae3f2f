/**
 * @file
 * CI perf lane: four headline measurements — simulator throughput and
 * peak RSS on the paper-scale bootstrapping trace (`bench_sim_speed`'s
 * event-driven core), the `bench_fig11_ablation` 15-job preset x SRAM
 * grid through `runSweep` with a shared `CompileCache`, the
 * per-optimization win matrix (each PR 10 optimization isolated
 * against the full preset), and the paper grid (every paper workload
 * x preset x SRAM point) — emitted as one machine-readable
 * `BENCH_sweep.json` (cycles, wall-clock ms, peak RSS, cache hit
 * stats, thread count, per-job fingerprints).
 *
 * CI uploads the file as an artifact on every push (the perf
 * trajectory) and gates on `bench/check_regression.py` against the
 * checked-in `bench/baseline.json`: deterministic fields (cycles,
 * fingerprints) must match exactly, wall-clock and peak RSS may regress
 * at most 25% (env-overridable). Regenerate the baseline deliberately
 * with `bench/regen_baseline.sh`.
 *
 * Usage: bench_perf_lane [output.json]   (default: BENCH_sweep.json)
 */
#include <chrono>
#include <cinttypes>
#include <functional>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench_common.h"
#include "common/logging.h"
#include "compiler/pass_manager.h"

namespace effact {
namespace {

using Clock = std::chrono::steady_clock;

double
msSince(const Clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Process high-water RSS so far, in MiB (`ru_maxrss` is KiB on Linux). */
double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

/** One Fig. 11 compiler preset; `macReuse` is its Fig. 11 hardware
 *  point (the paper grid keeps the stock hardware instead). */
struct Preset
{
    const char *name;
    CompilerOptions (*options)(size_t);
    bool macReuse;
};

const std::vector<Preset> kPresets = {
    {"baseline", Platform::baselineOptions, false},
    {"MAD-enhanced", Platform::madEnhancedOptions, false},
    {"streaming", Platform::streamingOptions, false},
    {"full", Platform::fullOptions, true},
    {"optimized", Platform::optimizedOptions, true},
};

struct SimSpeedResult
{
    size_t instructions = 0;
    double cycles = 0;
    double compileWallMs = 0;
    double middleWallMs = 0;  ///< `runMiddleEnd`, inside compileWallMs
    double backendWallMs = 0; ///< `runBackEnd`, inside compileWallMs
    double simWallMs = 0; ///< best of kSimReps
    /** Process peak RSS (MiB) after one uncached `full` compile plus
     *  kSimReps simulations of the paper job. */
    double peakRssMb = 0;
};

/** `sim_wall_ms` is the best of this many `Simulator::run` calls. On a
 *  shared host three back-to-back calls could all land in a slow spell
 *  and fail the 25% gate with no code change. */
constexpr int kSimReps = 9;

/** The `bench_sim_speed` measurement: event-driven core throughput on
 *  the paper-scale bootstrapping trace. */
SimSpeedResult
measureSimSpeed()
{
    SimSpeedResult r;
    Workload w = buildBootstrapping(paperFhe());
    HardwareConfig hw = HardwareConfig::asicEffact27();
    Compiler compiler(Platform::fullOptions(hw.sramBytes));

    // The two stages `Platform::run` calls, timed apart; the analyses
    // die before the simulations, as they do there.
    MachineProgram mp;
    const Clock::time_point c0 = Clock::now();
    {
        AnalysisManager analyses;
        StatSet stats;
        compiler.runMiddleEnd(w.program, analyses, stats);
        r.middleWallMs = msSince(c0);
        const Clock::time_point c1 = Clock::now();
        mp = compiler.runBackEnd(w.program, analyses, stats);
        r.backendWallMs = msSince(c1);
    }
    r.compileWallMs = msSince(c0);
    r.instructions = mp.insts.size();

    Simulator sim(hw);
    double best = 1e300;
    for (int rep = 0; rep < kSimReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const SimReport report = sim.run(mp);
        best = std::min(best, msSince(t0));
        // Every run times the same simulation: identical cycles.
        EFFACT_ASSERT(rep == 0 || report.cycles == r.cycles,
                      "simulator run %d gave %.0f cycles, run 0 gave %.0f",
                      rep, report.cycles, r.cycles);
        r.cycles = report.cycles;
    }
    r.simWallMs = best;
    r.peakRssMb = peakRssMb(); // the lane's first step: nothing else ran
    return r;
}

struct GridResult
{
    double wallMs = 0;
    size_t threads = 0;
    StatSet cacheStats;
    std::vector<SweepJob> jobs;
    std::vector<PlatformResult> results;
};

/** The `bench_fig11_ablation` grid, verbatim job order, through
 *  `runSweep` with a shared compile cache. */
GridResult
runFig11Grid()
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.hbmBytesPerSec = 1.0e12;

    const std::vector<size_t> sram_points = {
        size_t(27) << 20, size_t(13) << 20, size_t(54) << 20};

    GridResult grid;
    for (size_t sram : sram_points) {
        for (const Preset &step : kPresets) {
            HardwareConfig cfg = hw;
            cfg.nttMacReuse = step.macReuse;
            cfg.sramBytes = sram;
            grid.jobs.push_back(
                {std::string(step.name) + "/sram" +
                     std::to_string(sram >> 20),
                 [] { return buildBootstrapping(paperFhe()); }, cfg,
                 step.options(sram)});
        }
    }
    CompileCache cache;
    const size_t threads = defaultThreadCount();
    const Clock::time_point t0 = Clock::now();
    grid.results = runSweep(grid.jobs, threads, &cache);
    grid.wallMs = msSince(t0);
    grid.threads = std::min(threads, grid.jobs.size());
    grid.cacheStats = cache.statsSnapshot();

    // The hardware-split invariant the lane records: one middle-end
    // pipeline run per preset, at any thread count.
    const size_t presets = kPresets.size();
    EFFACT_ASSERT(grid.cacheStats.get("cache.misses") == double(presets),
                  "expected %zu middle-end runs, saw %.0f", presets,
                  grid.cacheStats.get("cache.misses"));
    // The combined optimized preset never loses to the full preset at
    // any SRAM point (jobs are listed preset-major per SRAM point, so
    // full/optimized are adjacent).
    for (size_t i = 0; i + 1 < grid.results.size(); i += presets) {
        const PlatformResult &full = grid.results[i + presets - 2];
        const PlatformResult &opt = grid.results[i + presets - 1];
        EFFACT_ASSERT(opt.sim.cycles <= full.sim.cycles,
                      "optimized preset regressed at %s: %.0f > %.0f",
                      grid.jobs[i + presets - 1].name.c_str(),
                      opt.sim.cycles, full.sim.cycles);
    }
    return grid;
}

// --- Per-optimization cycle wins ------------------------------------------

/** One (workload, variant, SRAM) measurement of the opt-wins matrix. */
struct WinRow
{
    std::string workload;
    std::string opt;
    size_t sramMb = 0;
    double cycles = 0;
    uint64_t fingerprint = 0;
};

/**
 * Isolates each PR 10 optimization against the full Fig. 11 preset:
 * `rotalg` (algebraic rotation rewrites), `regalloc` (priority spill
 * scoring), `scheduler` (latency-weighted list scheduling), and the
 * three combined (`optimized`), on the paper-scale bootstrapping trace
 * and the hoisted rotation batch, at a spill-heavy and a comfortable
 * SRAM point. Cycles and fingerprints are deterministic and gated
 * exactly against the baseline (`opt_wins.results`).
 */
std::vector<WinRow>
measureOptimizationWins()
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.hbmBytesPerSec = 1.0e12;
    hw.nttMacReuse = true; // the full-preset hardware point

    struct Variant
    {
        const char *name;
        void (*tweak)(CompilerOptions &);
    };
    const std::vector<Variant> variants = {
        {"full", [](CompilerOptions &) {}},
        {"rotalg",
         [](CompilerOptions &o) {
             o.pipeline = "copyprop,constprop,rotalg,pre,peephole";
         }},
        {"regalloc",
         [](CompilerOptions &o) { o.regalloc = RegAllocPolicy::Priority; }},
        {"scheduler",
         [](CompilerOptions &o) { o.scheduler = Scheduler::Latency; }},
        {"optimized",
         [](CompilerOptions &o) {
             o.pipeline = "copyprop,constprop,rotalg,pre,peephole";
             o.regalloc = RegAllocPolicy::Priority;
             o.scheduler = Scheduler::Latency;
         }},
    };
    const std::vector<std::pair<const char *, std::function<Workload()>>>
        workloads = {
            {"bootstrap", [] { return buildBootstrapping(paperFhe()); }},
            {"rotbatch",
             [] { return buildRotationBatch(paperFhe(), 8, 12); }},
        };
    const std::vector<size_t> sram_points = {size_t(13) << 20,
                                             size_t(27) << 20};

    std::vector<SweepJob> jobs;
    std::vector<WinRow> rows;
    for (const auto &[wname, build] : workloads) {
        for (size_t sram : sram_points) {
            for (const Variant &v : variants) {
                HardwareConfig cfg = hw;
                cfg.sramBytes = sram;
                CompilerOptions opts = Platform::fullOptions(sram);
                v.tweak(opts);
                jobs.push_back({std::string(wname) + "/" + v.name +
                                    "/sram" + std::to_string(sram >> 20),
                                build, cfg, opts});
                rows.push_back({wname, v.name, sram >> 20});
            }
        }
    }
    CompileCache cache;
    const std::vector<PlatformResult> results =
        runSweep(jobs, defaultThreadCount(), &cache);
    for (size_t i = 0; i < rows.size(); ++i) {
        rows[i].cycles = results[i].sim.cycles;
        rows[i].fingerprint = results[i].machineFingerprint;
    }

    // The measured-win gate: each optimization, isolated, strictly
    // improves at least one (workload, SRAM) point. Rows are blocks of
    // `stride` with the full-preset anchor first.
    const size_t stride = variants.size();
    for (size_t v = 1; v < stride; ++v) {
        bool wins = false;
        for (size_t base = 0; base + v < rows.size(); base += stride) {
            const double delta =
                rows[base].cycles - rows[base + v].cycles;
            std::fprintf(stderr,
                         "[wins] %s/%s/sram%zu: %.0f cycles (%+.2f%% vs "
                         "full)\n",
                         rows[base + v].workload.c_str(),
                         rows[base + v].opt.c_str(),
                         rows[base + v].sramMb, rows[base + v].cycles,
                         -100.0 * delta / rows[base].cycles);
            wins |= delta > 0;
        }
        EFFACT_ASSERT(wins, "%s never beats the full preset",
                      variants[v].name);
    }
    return rows;
}

// --- Paper workload grid ---------------------------------------------------

/** One (workload, preset, SRAM) job of the paper grid. */
struct PaperRow
{
    std::string workload;
    std::string preset;
    size_t sramMb = 0;
    double cycles = 0;
    uint64_t fingerprint = 0;
};

/**
 * The fixed point for every paper workload: the four
 * `buildAllBenchmarks` workloads plus TFHE gate bootstrapping, x the
 * five presets x {13, 27, 54} MB of SRAM on stock ASIC-EFFACT-27,
 * through `runSweep` with a shared compile cache. Cycles and
 * fingerprints are gated exactly (`paper_grid.results`), so a change
 * that alters any workload's machine code fails the lane, not only
 * bootstrapping's.
 */
std::vector<PaperRow>
measurePaperGrid()
{
    std::vector<std::pair<std::string, Workload>> workloads =
        buildAllBenchmarks(paperFhe());
    workloads.emplace_back("TFHE", buildTfheBootstrap());
    const std::vector<size_t> sram_mb = {13, 27, 54};

    std::vector<SweepJob> jobs;
    std::vector<PaperRow> rows;
    for (const auto &[wname, w] : workloads) {
        for (size_t mb : sram_mb) {
            for (const Preset &p : kPresets) {
                HardwareConfig hw = HardwareConfig::asicEffact27();
                hw.sramBytes = mb << 20;
                jobs.push_back({wname + "/" + p.name + "/sram" +
                                    std::to_string(mb),
                                [&w = w] { return w; }, hw,
                                p.options(hw.sramBytes)});
                rows.push_back({wname, p.name, mb});
            }
        }
    }
    CompileCache cache;
    const std::vector<PlatformResult> results =
        runSweep(jobs, defaultThreadCount(), &cache);
    for (size_t i = 0; i < rows.size(); ++i) {
        rows[i].cycles = results[i].sim.cycles;
        rows[i].fingerprint = results[i].machineFingerprint;
    }
    return rows;
}

int
emit(const char *path)
{
    // Recorded perf numbers must be comparable run to run: refuse to
    // measure with checkpoint verification switched on via the
    // environment — a verified compile is a different workload than the
    // one the checked-in baseline was recorded from. Every job's
    // options default their verify level from the same environment, so
    // this also keeps the checkpoint verifiers out of every sweep.
    EFFACT_ASSERT(defaultVerifyLevel() == 0,
                  "perf lane refuses to run with EFFACT_VERIFY set: "
                  "verification would pollute the recorded wall-clock");

    const SimSpeedResult speed = measureSimSpeed();
    const GridResult grid = runFig11Grid();
    const std::vector<WinRow> wins = measureOptimizationWins();
    const std::vector<PaperRow> paper = measurePaperGrid();

    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"effact-bench-sweep-v1\",\n");
    std::fprintf(f, "  \"sim_speed\": {\n");
    std::fprintf(f, "    \"instructions\": %zu,\n", speed.instructions);
    std::fprintf(f, "    \"cycles\": %.0f,\n", speed.cycles);
    std::fprintf(f, "    \"compile_wall_ms\": %.3f,\n",
                 speed.compileWallMs);
    std::fprintf(f, "    \"middle_wall_ms\": %.3f,\n", speed.middleWallMs);
    std::fprintf(f, "    \"backend_wall_ms\": %.3f,\n",
                 speed.backendWallMs);
    std::fprintf(f, "    \"sim_wall_ms\": %.3f,\n", speed.simWallMs);
    std::fprintf(f, "    \"insts_per_sec\": %.0f,\n",
                 double(speed.instructions) / (speed.simWallMs / 1e3));
    std::fprintf(f, "    \"peak_rss_mb\": %.1f\n", speed.peakRssMb);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"fig11_grid\": {\n");
    std::fprintf(f, "    \"jobs\": %zu,\n", grid.results.size());
    std::fprintf(f, "    \"threads\": %zu,\n", grid.threads);
    std::fprintf(f, "    \"wall_ms\": %.3f,\n", grid.wallMs);
    std::fprintf(f, "    \"cache\": {\n");
    std::fprintf(f, "      \"lookups\": %.0f,\n",
                 grid.cacheStats.get("cache.lookups"));
    std::fprintf(f, "      \"hits\": %.0f,\n",
                 grid.cacheStats.get("cache.hits"));
    std::fprintf(f, "      \"middle_end_runs\": %.0f\n",
                 grid.cacheStats.get("cache.misses"));
    std::fprintf(f, "    },\n");
    std::fprintf(f, "    \"results\": [\n");
    for (size_t i = 0; i < grid.results.size(); ++i) {
        const SweepJob &job = grid.jobs[i];
        const PlatformResult &r = grid.results[i];
        std::fprintf(f,
                     "      {\"name\": \"%s\", \"sram_mb\": %zu, "
                     "\"cycles\": %.0f, \"bench_ms\": %.6f, "
                     "\"dram_gb\": %.6f, "
                     "\"fingerprint\": \"0x%016" PRIx64 "\"}%s\n",
                     job.name.c_str(), job.hw.sramBytes >> 20,
                     r.sim.cycles, r.benchTimeMs, r.dramGb,
                     r.machineFingerprint,
                     i + 1 < grid.results.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"opt_wins\": {\n");
    std::fprintf(f, "    \"jobs\": %zu,\n", wins.size());
    std::fprintf(f, "    \"results\": [\n");
    for (size_t i = 0; i < wins.size(); ++i) {
        const WinRow &r = wins[i];
        std::fprintf(f,
                     "      {\"workload\": \"%s\", \"opt\": \"%s\", "
                     "\"sram_mb\": %zu, \"cycles\": %.0f, "
                     "\"fingerprint\": \"0x%016" PRIx64 "\"}%s\n",
                     r.workload.c_str(), r.opt.c_str(), r.sramMb,
                     r.cycles, r.fingerprint,
                     i + 1 < wins.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"paper_grid\": {\n");
    std::fprintf(f, "    \"jobs\": %zu,\n", paper.size());
    std::fprintf(f, "    \"results\": [\n");
    for (size_t i = 0; i < paper.size(); ++i) {
        const PaperRow &r = paper[i];
        std::fprintf(f,
                     "      {\"workload\": \"%s\", \"preset\": \"%s\", "
                     "\"sram_mb\": %zu, \"cycles\": %.0f, "
                     "\"fingerprint\": \"0x%016" PRIx64 "\"}%s\n",
                     r.workload.c_str(), r.preset.c_str(), r.sramMb,
                     r.cycles, r.fingerprint,
                     i + 1 < paper.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::fprintf(stderr,
                 "[perf] sim: %zu insts, %.0f cycles, %.1f ms, peak RSS "
                 "%.1f MB | grid: %zu jobs on %zu worker(s), %.1f ms, "
                 "%.0f middle-end run(s) | paper grid: %zu jobs\n",
                 speed.instructions, speed.cycles, speed.simWallMs,
                 speed.peakRssMb, grid.results.size(), grid.threads,
                 grid.wallMs, grid.cacheStats.get("cache.misses"),
                 paper.size());
    std::printf("wrote %s\n", path);
    return 0;
}

} // namespace
} // namespace effact

int
main(int argc, char **argv)
{
    return effact::emit(argc > 1 ? argv[1] : "BENCH_sweep.json");
}
