/**
 * @file
 * Shared pieces of the repository benchmark: the run arguments, the
 * report every workload fills, sample statistics, the span tracer and
 * the staged compile-and-simulate path the traced runs and the output
 * checks share.
 */
#ifndef REPOBENCH_HARNESS_H
#define REPOBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/platform.h"

namespace repobench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed from `t0` to `t1`. */
double msBetween(Clock::time_point t0, Clock::time_point t1);

/** Milliseconds elapsed since `t0`. */
double msSince(Clock::time_point t0);

/** Process start as seen by `main` (set once before any work);
 *  `setup_s` runs from here to the first timed operation. */
extern Clock::time_point gProcessStart;

/** Fewest timed operations a run makes, whatever `--seconds` says. */
constexpr size_t kMinOps = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Chrome trace-event JSON written at exit of a traced run. */
    std::string traceFile;
    /** Directory for the per-seed determinism records. */
    std::string stateDir;
    /** Directory for the service socket (kept short: AF_UNIX paths are
     *  limited to about 100 bytes). */
    std::string runDir = ".";
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run reports. */
struct Report
{
    /** End-to-end metrics of the untraced run (printed with --trace 0). */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (printed with --trace 1). */
    std::vector<Metric> perLayer;
    /** Further named results printed on the human-readable lines: the
     *  end-to-end metrics the fixed result schema has no room for. */
    std::vector<Metric> extra;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** One line per failed check. */
    std::vector<std::string> errors;
    /** Canonical text of every deterministic value (cycles, counts,
     *  fingerprints, precision); equal seeds must give equal text. */
    std::string deterministic;
};

// --- Sample statistics ------------------------------------------------------

/** Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty). */
double quantile(std::vector<double> v, double q);

double median(const std::vector<double> &v);

double geomean(const std::vector<double> &v);

/** Host peak resident set of this process in MiB. */
double peakRssMb();

/**
 * Adds the latency/throughput end-to-end metrics for one timed phase:
 * `latency_ms_p50`, `throughput_per_s`, plus `latency_ms_p90` as an
 * extra when there are at least 100 samples.
 */
void addLatencyMetrics(Report &report, const std::vector<double> &latMs,
                       double completed, double phaseSeconds);

// --- Per-layer metrics a workload does not run --------------------------------
//
// A traced run reports every per-layer metric of BENCHMARK.json. Those of
// layers the workload never calls are emitted as explicit zeros from
// these groups, so a metric a workload should measure but drops shows up
// as missing rather than as a plausible 0.

/** IR, middle/back end and simulator results (paper-job, dse-service). */
extern const std::vector<Metric> kCompileMetrics;
/** Pass-by-pass and phase-by-phase compiler timings, the machine-code
 *  DepGraph, verifyMachine, and the self times of the compile path's
 *  layers (paper-job only). */
extern const std::vector<Metric> kStagedMetrics;
/** Compile cache, runtime pool and service protocol (dse-service). */
extern const std::vector<Metric> kServiceMetrics;
/** math, rns and ckks kernels and bootstrapping stages (ckks-boot). */
extern const std::vector<Metric> kCkksMetrics;

/** Appends `group`'s metrics with value 0. */
void addNotRun(Report &report, const std::vector<Metric> &group);

// --- Tracing ----------------------------------------------------------------

/**
 * In-memory span recorder. Spans nest through an explicit stack, so a
 * tracer belongs to one thread; every span recorded here comes from
 * the benchmark's own calls into a layer's public entry points. A
 * disabled tracer records nothing.
 */
class Tracer
{
  public:
    struct SpanRec
    {
        std::string name;
        int64_t startUs = 0;
        int64_t endUs = 0;
        uint64_t id = 0;
        uint64_t parent = 0; ///< 0 = a root span
        uint64_t op = 0;     ///< id of the operation (root) span
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    uint64_t begin(const std::string &name);
    /** Ends span `id`, which must be the innermost open one. */
    void end(uint64_t id);

    const std::vector<SpanRec> &spans() const { return spans_; }

    /** Durations (ms) of every closed span called `name`. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Self time per layer (the span-name prefix before the first '.'),
     * summed over the spans of operation trees (roots named `bench.*`)
     * and divided by the number of those operations.
     */
    std::vector<Metric> selfTimePerOp() const;

    /** Writes the spans as Chrome trace-event JSON (Perfetto opens it) */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<SpanRec> spans_;
    std::vector<size_t> open_; ///< indices into spans_
    uint64_t nextId_ = 1;
};

/** RAII span; a no-op on a disabled tracer. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name)
        : tracer_(tracer), id_(tracer.enabled() ? tracer.begin(name) : 0)
    {}
    ~Span()
    {
        if (id_ != 0)
            tracer_.end(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    uint64_t id_;
};

/**
 * Adds a traced run's summary: self time per layer per operation, the
 * span count, and the tracing overhead — the traced p50 of `opSpan`
 * minus `untracedP50Ms`, the same operation's p50 in the untraced
 * phase of the run.
 */
void addTraceSummary(Report &report, const Tracer &tracer,
                     const std::string &opSpan, double untracedP50Ms);

/** Adds `<name>` = median duration (ms) of the spans called `span`. */
void addSpanMedian(Report &report, const Tracer &tracer,
                   const std::string &name, const std::string &span);

// --- Staged compile and simulate --------------------------------------------

/** One job compiled through the compiler's public stages. */
struct StagedJob
{
    effact::MachineProgram program;
    effact::StatSet stats;     ///< middle- and back-end statistics
    effact::SimReport sim;
    uint64_t fingerprint = 0;
    double simMs = 0; ///< host time of `Simulator::run`
};

/**
 * Middle end, back end and simulation of `workload` with `platform`'s
 * hardware-adjusted options: the same work `Platform::run` does
 * uncached, spanned as `compiler.middle`, `compiler.backend` and
 * `sim.run` when `tracer` is enabled.
 */
StagedJob runStaged(const effact::Platform &platform,
                    effact::Workload &workload, Tracer &tracer);

/**
 * The output check every compiled program gets, run outside any timed
 * region: `verifyMachine` under the platform's SRAM budget. Returns an
 * empty string when clean, else the first findings.
 */
std::string verifyProgram(const effact::Platform &platform,
                          const effact::MachineProgram &program);

/** Deterministic fields of one design point, as canonical text. */
std::string pointDigest(const std::string &name,
                        const effact::PlatformResult &result);

/**
 * Per-layer counts over a set of design points' `Platform::run` results
 * (geometric means, so they are deterministic for a given point set):
 * ir/compiler instruction counts, spills, pipeline sweeps, simulated
 * cycles and unit utilizations.
 */
void addPointCounts(Report &report,
                    const std::vector<effact::PlatformResult> &points);

// --- Workloads --------------------------------------------------------------

Report runPaperJob(const Args &args);
Report runDseService(const Args &args);
Report runCkksBoot(const Args &args);

} // namespace repobench

#endif // REPOBENCH_HARNESS_H
