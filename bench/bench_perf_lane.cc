/**
 * @file
 * CI perf lane: five measurements emitted as one machine-readable
 * `BENCH_sweep.json`, in the order they run:
 *
 *  - `sim_speed`: compile wall clock, event-driven simulator wall clock
 *    and peak RSS on the paper-scale bootstrapping trace. It runs
 *    first, so `peak_rss_mb` is the RSS of one paper job alone.
 *  - `kernels`: the dispatched math kernels (NTT forward/inverse,
 *    pointwise modmul, BConv) under the scalar oracle tier and the best
 *    tier this host supports. Before timing anything, every kernel
 *    family runs under every available tier on identical inputs; the
 *    lane aborts unless each tier's outputs fold to the scalar oracle's
 *    FNV-1a fingerprint, which it records as `kernels.fingerprint`.
 *  - `fig11_grid`: the `bench_fig11_ablation` 15-job preset x SRAM grid
 *    through `runSweep` with a shared `CompileCache`.
 *  - `opt_wins`: the per-optimization win matrix (each compiler
 *    optimization isolated against the full preset).
 *  - `paper_grid`: every paper workload x preset x SRAM point.
 *
 * Result rows carry one `name`, `<workload>/<preset or opt>/sram<N>`.
 * The top-level `host` object records the runner (worker count, SIMD
 * tiers exercised). Derived ratios (simulated instructions per second,
 * kernel speedups) go to stderr, not to the file.
 *
 * CI uploads the file as an artifact on every push (the perf
 * trajectory) and gates it with `bench/check_regression.py` against the
 * checked-in `bench/baseline.json`, by a rule read from each field's
 * name: a `*wall_ms` or `*rss_mb` field may regress at most 25%
 * (env-overridable), `host` is recorded but not gated, and every other
 * field (cycles, fingerprints, counts) must match exactly. Regenerate
 * the baseline deliberately with `bench/regen_baseline.sh`.
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
#include "common/rng.h"
#include "common/simd.h"
#include "compiler/pass_manager.h"
#include "math/kernels.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "rns/bconv.h"

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

/** Event-driven simulator throughput on the paper-scale bootstrapping
 *  trace, plus the compile that produces it. */
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

// --- SIMD kernel tiers -----------------------------------------------------

constexpr size_t kKernelDegree = 4096; ///< ring degree of every kernel run
constexpr int kKernelReps = 5;         ///< best-of reps per kernel wall

u64
fnv1a(u64 h, const u64 *data, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The fixed inputs every kernel measurement and the exactness gate
 *  share. */
struct KernelScene
{
    Ntt ntt;
    AlignedU64Vec poly;  ///< reduced mod ntt.modulus()
    AlignedU64Vec polyB; ///< second operand, same modulus
    BaseConverter bconv; ///< 6 x 40-bit primes onto 6 disjoint ones
    RnsPoly rnsInput;

    static KernelScene
    make()
    {
        const u64 q = genNttPrimes(1, 54, kKernelDegree)[0];
        Ntt ntt(kKernelDegree, q);
        Rng rng(1);
        AlignedU64Vec a(kKernelDegree), b(kKernelDegree);
        for (auto &c : a)
            c = rng.uniform(q);
        for (auto &c : b)
            c = rng.uniform(q);
        auto from = std::make_shared<RnsBasis>(
            kKernelDegree, genNttPrimes(6, 40, kKernelDegree));
        auto to = std::make_shared<RnsBasis>(
            kKernelDegree,
            genNttPrimes(6, 40, kKernelDegree, from->primes()));
        BaseConverter bc(from, to);
        RnsPoly p(from, PolyFormat::Coeff);
        Rng rng2(2);
        p.sampleUniform(rng2);
        return KernelScene{std::move(ntt), std::move(a), std::move(b),
                           std::move(bc), std::move(p)};
    }
};

/** One kernel family: how to run it once, folding outputs into `h`. */
struct KernelFamily
{
    const char *name; ///< JSON key
    int iters;        ///< timed iterations per rep
    u64 (*runOnce)(const KernelScene &s, u64 h);
};

u64
runNttForward(const KernelScene &s, u64 h)
{
    AlignedU64Vec a = s.poly;
    s.ntt.forward(a.data());
    return fnv1a(h, a.data(), a.size());
}

u64
runNttInverse(const KernelScene &s, u64 h)
{
    AlignedU64Vec a = s.poly; // any reduced vector is a valid eval input
    s.ntt.backward(a.data());
    return fnv1a(h, a.data(), a.size());
}

u64
runPointwiseMul(const KernelScene &s, u64 h)
{
    AlignedU64Vec dst(kKernelDegree);
    kernels::active().mulModV(dst.data(), s.poly.data(), s.polyB.data(),
                              kKernelDegree,
                              s.ntt.kernelTables().barrett[0]);
    return fnv1a(h, dst.data(), dst.size());
}

u64
runBconv(const KernelScene &s, u64 h)
{
    RnsPoly out = s.bconv.convert(s.rnsInput);
    for (size_t j = 0; j < out.limbCount(); ++j)
        h = fnv1a(h, out.limb(j).data(), out.limb(j).size());
    return h;
}

const KernelFamily kKernelFamilies[] = {
    {"ntt_forward", 200, runNttForward},
    {"ntt_inverse", 200, runNttInverse},
    {"pointwise_mul", 400, runPointwiseMul},
    {"bconv", 40, runBconv},
};

/** Runs every family once under `tier` and returns the combined
 *  fingerprint. */
u64
fingerprintTier(const KernelScene &s, SimdTier tier)
{
    const SimdTier installed = setSimdTier(tier);
    EFFACT_ASSERT(installed == tier, "tier %s unavailable mid-gate",
                  simdTierName(tier));
    u64 h = 0xcbf29ce484222325ULL;
    for (const KernelFamily &f : kKernelFamilies)
        h = f.runOnce(s, h);
    return h;
}

/** Best-of-kKernelReps wall clock of `iters` runs of one family. */
double
timeFamily(const KernelScene &s, const KernelFamily &f)
{
    double best = 1e300;
    for (int rep = 0; rep < kKernelReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        u64 sink = 0xcbf29ce484222325ULL;
        for (int it = 0; it < f.iters; ++it)
            sink = f.runOnce(s, sink);
        const double ms = msSince(t0);
        // Keep the fold observable so the loop cannot be elided.
        if (sink == 0)
            std::fprintf(stderr, "impossible fold\n");
        best = std::min(best, ms);
    }
    return best;
}

struct KernelResult
{
    u64 fingerprint = 0; ///< the scalar oracle's, which every tier gave
    std::string tiers;   ///< the tiers checked, comma-separated
    std::vector<double> scalarMs; ///< per family, scalar tier
    std::vector<double> vectorMs; ///< per family, best supported tier
};

/**
 * The exactness gate, then the walls. Every available tier must agree
 * with the scalar oracle before any number is recorded. On a host
 * without a vector tier the "vector" walls are a second scalar
 * measurement, and the JSON keeps its shape. Leaves the tier that was
 * active on entry installed.
 */
KernelResult
measureKernels()
{
    const KernelScene s = KernelScene::make();
    const SimdTier entry = activeSimdTier();
    const SimdTier best = maxSupportedSimdTier();

    KernelResult r;
    r.fingerprint = fingerprintTier(s, SimdTier::Scalar);
    r.tiers = simdTierName(SimdTier::Scalar);
    for (int t = 1; t <= static_cast<int>(best); ++t) {
        const SimdTier tier = static_cast<SimdTier>(t);
        const u64 got = fingerprintTier(s, tier);
        EFFACT_ASSERT(got == r.fingerprint,
                      "tier %s fingerprint 0x%016llx != scalar oracle "
                      "0x%016llx",
                      simdTierName(tier),
                      static_cast<unsigned long long>(got),
                      static_cast<unsigned long long>(r.fingerprint));
        r.tiers += ",";
        r.tiers += simdTierName(tier);
    }

    setSimdTier(SimdTier::Scalar);
    for (const KernelFamily &f : kKernelFamilies)
        r.scalarMs.push_back(timeFamily(s, f));
    setSimdTier(best);
    for (const KernelFamily &f : kKernelFamilies)
        r.vectorMs.push_back(timeFamily(s, f));
    setSimdTier(entry);
    return r;
}

// --- Compile-and-simulate grids --------------------------------------------

struct GridResult
{
    double wallMs = 0;
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
    const Clock::time_point t0 = Clock::now();
    grid.results = runSweep(grid.jobs, defaultThreadCount(), &cache);
    grid.wallMs = msSince(t0);
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

/** One job of the `opt_wins` or `paper_grid` sweep. */
struct JobRow
{
    std::string name; ///< `<workload>/<opt or preset>/sram<N>`
    double cycles = 0;
    uint64_t fingerprint = 0;
};

/** Runs `jobs` through `runSweep` with a shared compile cache, one row
 *  per job in job order. */
std::vector<JobRow>
runRows(const std::vector<SweepJob> &jobs)
{
    CompileCache cache;
    const std::vector<PlatformResult> results =
        runSweep(jobs, defaultThreadCount(), &cache);
    std::vector<JobRow> rows;
    for (size_t i = 0; i < jobs.size(); ++i)
        rows.push_back({jobs[i].name, results[i].sim.cycles,
                        results[i].machineFingerprint});
    return rows;
}

/**
 * Isolates each PR 10 optimization against the full Fig. 11 preset:
 * `rotalg` (algebraic rotation rewrites), `regalloc` (priority spill
 * scoring), `scheduler` (latency-weighted list scheduling), and the
 * three combined (`optimized`), on the paper-scale bootstrapping trace
 * and the hoisted rotation batch, at a spill-heavy and a comfortable
 * SRAM point. Cycles and fingerprints are deterministic and gated
 * exactly against the baseline (`opt_wins.results`).
 */
std::vector<JobRow>
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
            }
        }
    }
    const std::vector<JobRow> rows = runRows(jobs);

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
                         "[wins] %s: %.0f cycles (%+.2f%% vs full)\n",
                         rows[base + v].name.c_str(), rows[base + v].cycles,
                         -100.0 * delta / rows[base].cycles);
            wins |= delta > 0;
        }
        EFFACT_ASSERT(wins, "%s never beats the full preset",
                      variants[v].name);
    }
    return rows;
}

// --- Paper workload grid ---------------------------------------------------

/**
 * The fixed point for every paper workload: the four
 * `buildAllBenchmarks` workloads plus TFHE gate bootstrapping, x the
 * five presets x {13, 27, 54} MB of SRAM on stock ASIC-EFFACT-27,
 * through `runSweep` with a shared compile cache. Cycles and
 * fingerprints are gated exactly (`paper_grid.results`), so a change
 * that alters any workload's machine code fails the lane, not only
 * bootstrapping's.
 */
std::vector<JobRow>
measurePaperGrid()
{
    std::vector<std::pair<std::string, Workload>> workloads =
        buildAllBenchmarks(paperFhe());
    workloads.emplace_back("TFHE", buildTfheBootstrap());
    const std::vector<size_t> sram_mb = {13, 27, 54};

    std::vector<SweepJob> jobs;
    for (const auto &[wname, w] : workloads) {
        for (size_t mb : sram_mb) {
            for (const Preset &p : kPresets) {
                HardwareConfig hw = HardwareConfig::asicEffact27();
                hw.sramBytes = mb << 20;
                jobs.push_back({wname + "/" + p.name + "/sram" +
                                    std::to_string(mb),
                                [&w = w] { return w; }, hw,
                                p.options(hw.sramBytes)});
            }
        }
    }
    return runRows(jobs);
}

/** Writes a `{"jobs": N, "results": [...]}` section of `rows`. */
void
emitRows(std::FILE *f, const char *section, const std::vector<JobRow> &rows)
{
    std::fprintf(f, "  \"%s\": {\n", section);
    std::fprintf(f, "    \"jobs\": %zu,\n", rows.size());
    std::fprintf(f, "    \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i)
        std::fprintf(f,
                     "      {\"name\": \"%s\", \"cycles\": %.0f, "
                     "\"fingerprint\": \"0x%016" PRIx64 "\"}%s\n",
                     rows[i].name.c_str(), rows[i].cycles,
                     rows[i].fingerprint, i + 1 < rows.size() ? "," : "");
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }");
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
    const KernelResult kern = measureKernels();
    const GridResult grid = runFig11Grid();
    const std::vector<JobRow> wins = measureOptimizationWins();
    const std::vector<JobRow> paper = measurePaperGrid();
    const size_t threads = defaultThreadCount();

    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"effact-bench-sweep-v2\",\n");
    std::fprintf(f, "  \"host\": {\n");
    std::fprintf(f, "    \"threads\": %zu,\n", threads);
    std::fprintf(f, "    \"simd_tiers\": \"%s\"\n", kern.tiers.c_str());
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sim_speed\": {\n");
    std::fprintf(f, "    \"instructions\": %zu,\n", speed.instructions);
    std::fprintf(f, "    \"cycles\": %.0f,\n", speed.cycles);
    std::fprintf(f, "    \"compile_wall_ms\": %.3f,\n",
                 speed.compileWallMs);
    std::fprintf(f, "    \"middle_wall_ms\": %.3f,\n", speed.middleWallMs);
    std::fprintf(f, "    \"backend_wall_ms\": %.3f,\n",
                 speed.backendWallMs);
    std::fprintf(f, "    \"sim_wall_ms\": %.3f,\n", speed.simWallMs);
    std::fprintf(f, "    \"peak_rss_mb\": %.1f\n", speed.peakRssMb);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"kernels\": {\n");
    std::fprintf(f, "    \"fingerprint\": \"0x%016" PRIx64 "\",\n",
                 kern.fingerprint);
    std::fprintf(f, "    \"degree\": %zu,\n", kKernelDegree);
    for (size_t i = 0; i < kern.scalarMs.size(); ++i)
        std::fprintf(f,
                     "    \"%s\": {\"scalar_wall_ms\": %.3f, "
                     "\"vector_wall_ms\": %.3f}%s\n",
                     kKernelFamilies[i].name, kern.scalarMs[i],
                     kern.vectorMs[i],
                     i + 1 < kern.scalarMs.size() ? "," : "");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"fig11_grid\": {\n");
    std::fprintf(f, "    \"jobs\": %zu,\n", grid.results.size());
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
    emitRows(f, "opt_wins", wins);
    std::fprintf(f, ",\n");
    emitRows(f, "paper_grid", paper);
    std::fprintf(f, "\n}\n");
    std::fclose(f);

    std::fprintf(stderr,
                 "[perf] sim: %zu insts, %.0f cycles, %.1f ms (%.0f "
                 "insts/s), peak RSS %.1f MB | grid: %zu jobs on %zu "
                 "worker(s), %.1f ms, %.0f middle-end run(s) | paper "
                 "grid: %zu jobs\n",
                 speed.instructions, speed.cycles, speed.simWallMs,
                 double(speed.instructions) / (speed.simWallMs / 1e3),
                 speed.peakRssMb, grid.results.size(),
                 std::min(threads, grid.results.size()), grid.wallMs,
                 grid.cacheStats.get("cache.misses"), paper.size());
    std::fprintf(stderr, "[kernels] tiers %s, fingerprint 0x%016" PRIx64
                         "\n",
                 kern.tiers.c_str(), kern.fingerprint);
    for (size_t i = 0; i < kern.scalarMs.size(); ++i)
        std::fprintf(stderr, "[kernels] %-18s scalar %8.3f ms  vector "
                             "%8.3f ms  x%.2f\n",
                     kKernelFamilies[i].name, kern.scalarMs[i],
                     kern.vectorMs[i], kern.scalarMs[i] / kern.vectorMs[i]);
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
