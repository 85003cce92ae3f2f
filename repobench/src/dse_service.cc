/**
 * @file
 * `dse-service`: a design-space sweep served by the daemon. One closed-
 * loop client holds one AF_UNIX connection to an in-process
 * `ServiceServer` whose pool has `nproc` workers. It sends bursts drawn
 * by the seed from {bootstrap, helr, resnet20} x the five presets x
 * {13, 27, 54} MB of SRAM, flushes each burst and waits for its results
 * before sending the next. The compile cache holds about half of the
 * 15 distinct middle-end snapshots, so the mix both hits and evicts.
 */
#include <unistd.h>

#include <thread>

#include "common/rng.h"
#include "harness.h"
#include "runtime/thread_pool.h"
#include "service/service.h"

namespace repobench {

using namespace effact;

namespace {

/** Requests per burst: within the batch size and the queue capacity. */
constexpr size_t kBurst = 8;
constexpr size_t kBatchSize = 16;
constexpr size_t kQueueCapacity = 64;
/** About half of the ~100 MB the 15 middle-end snapshots take at
 *  paper scale (4.5-14 MB each). */
constexpr size_t kCacheBytes = size_t(48) << 20;

std::vector<ServiceRequest>
designPoints()
{
    using PresetFn = CompilerOptions (*)(size_t);
    const std::pair<const char *, PresetFn> presets[] = {
        {"baseline", Platform::baselineOptions},
        {"mad", Platform::madEnhancedOptions},
        {"streaming", Platform::streamingOptions},
        {"full", Platform::fullOptions},
        {"optimized", Platform::optimizedOptions},
    };
    std::vector<ServiceRequest> points;
    for (const char *workload : {"bootstrap", "helr", "resnet20"})
        for (const auto &[preset, options] : presets)
            for (size_t mb : {13, 27, 54}) {
                ServiceRequest req;
                req.tag = points.size();
                req.name = std::string(workload) + "/" + preset + "/" +
                           std::to_string(mb) + "MB";
                req.workload = workload;
                req.hw = HardwareConfig::asicEffact27();
                req.hw.sramBytes = mb << 20;
                req.copts = options(req.hw.sramBytes);
                req.verifyLevel = 0;
                points.push_back(std::move(req));
            }
    return points;
}

ServiceOptions
serviceOptions(size_t threads)
{
    ServiceOptions opts;
    opts.threads = threads;
    opts.queueCapacity = kQueueCapacity;
    opts.batchSize = kBatchSize;
    opts.cacheBytes = kCacheBytes;
    opts.useCache = true;
    opts.verifyLevel = 0;
    return opts;
}

/** Seeded request stream: every round visits each design point once,
 *  in a fresh shuffled order. */
class RequestStream
{
  public:
    RequestStream(size_t points, uint64_t seed)
        : points_(points), rng_(seed ^ 0xd5e5e41ce0ULL)
    {}

    size_t
    next()
    {
        if (pos_ == round_.size()) {
            round_.resize(points_);
            for (size_t i = 0; i < points_; ++i)
                round_[i] = i;
            for (size_t i = points_; i > 1; --i)
                std::swap(round_[i - 1], round_[rng_.uniform(i)]);
            pos_ = 0;
        }
        return round_[pos_++];
    }

  private:
    size_t points_;
    Rng rng_;
    std::vector<size_t> round_;
    size_t pos_ = 0;
};

/** A server on its own thread plus the client's connection to it. */
class Session
{
  public:
    Session(const std::string &socketPath, size_t threads)
        : server_(ServiceServerOptions{socketPath, "",
                                       serviceOptions(threads)})
    {}

    ~Session()
    {
        if (thread_.joinable()) {
            server_.stop();
            client_.close();
            thread_.join();
        }
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    bool
    start(std::string *error)
    {
        if (!server_.start(error))
            return false;
        thread_ = std::thread([this] { server_.run(); });
        return client_.connect(server_.socketPath(), error);
    }

    ServiceClient &client() { return client_; }

    /** Shuts the server down (collecting nothing outstanding) and
     *  returns its final counters. */
    StatSet
    finish(std::string *error)
    {
        std::vector<ServiceResult> rest;
        if (!client_.shutdownServer(&rest, error)) {
            server_.stop();
            client_.close();
        }
        thread_.join();
        return server_.core().statsSnapshot();
    }

  private:
    ServiceServer server_;
    ServiceClient client_;
    std::thread thread_;
};

/** One burst's outcome, as the client sees it. */
struct Burst
{
    std::vector<ServiceResult> results;
    std::vector<double> latMs; ///< per request: send -> results received
    double wallMs = 0;
};

bool
sendBurst(Session &session, const std::vector<ServiceRequest> &points,
          RequestStream &stream, Tracer &tracer, Burst *out,
          std::string *error)
{
    Span op(tracer, "bench.burst");
    const Clock::time_point start = Clock::now();
    std::vector<Clock::time_point> sent;
    for (size_t k = 0; k < kBurst; ++k) {
        Span span(tracer, "service.send");
        sent.push_back(Clock::now());
        if (!session.client().sendRequest(points[stream.next()], error))
            return false;
    }
    {
        Span span(tracer, "service.flush");
        if (!session.client().flush(&out->results, error))
            return false;
    }
    const Clock::time_point done = Clock::now();
    for (const Clock::time_point &t : sent)
        out->latMs.push_back(msBetween(t, done));
    out->wallMs = msBetween(start, done);
    return out->results.size() == kBurst;
}

double
jobMs(const ServiceResult &r, const char *stage)
{
    return r.stats.get(std::string("job.") + stage + ".ms");
}

/** Mean time per call of the four protocol entry points a request
 *  crosses (client encode, server decode), in microseconds. */
double
protocolRoundTripUs(const ServiceRequest &req, Tracer &tracer)
{
    constexpr int kReps = 2000;
    double ms = 0;
    {
        Span span(tracer, "service.protocol");
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kReps; ++i) {
            const std::vector<uint8_t> bytes =
                encodeFrame(FrameType::Request, encodeRequest(req));
            Frame frame;
            size_t consumed = 0;
            ServiceRequest back;
            std::string error;
            if (decodeFrame(bytes.data(), bytes.size(), &frame,
                            &consumed) != FrameDecodeStatus::Ok ||
                !decodeRequest(frame.payload, &back, &error))
                return -1;
        }
        ms = msSince(t0);
    }
    return ms * 1e3 / kReps;
}

/** Queues on `pool` the reference result of every design point:
 *  `Platform::run`, uncached and serial per job, plus the staged compile
 *  that verifyMachine checks. The caller waits on the pool. */
void
submitReferences(ThreadPool &pool, const std::vector<ServiceRequest> &points,
                 std::vector<PlatformResult> *refs,
                 std::vector<std::string> *problems)
{
    refs->assign(points.size(), PlatformResult());
    problems->assign(points.size(), std::string());
    for (size_t i = 0; i < points.size(); ++i)
        pool.submit([&points, refs, problems, i](size_t) {
            Tracer off(false);
            const Platform platform(points[i].hw, points[i].copts);
            Workload w = makeWorkloadBuild(points[i])();
            (*refs)[i] = platform.run(w);
            Workload again = makeWorkloadBuild(points[i])();
            const StagedJob staged = runStaged(platform, again, off);
            std::string bad = verifyProgram(platform, staged.program);
            if (!bad.empty())
                (*problems)[i] = "verifyMachine: " + bad;
            else if (staged.fingerprint != (*refs)[i].machineFingerprint ||
                     staged.sim.cycles != (*refs)[i].sim.cycles)
                (*problems)[i] = "staged compile differs from Platform::run";
        });
}

} // namespace

Report
runDseService(const Args &args)
{
    Report report;
    const std::vector<ServiceRequest> points = designPoints();
    const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    Tracer off(false);
    std::string error;

    // Set-up: server bind, pool creation and one warm-up burst.
    auto session = std::make_unique<Session>(
        args.runDir + "/dse-" + std::to_string(::getpid()) + ".sock", nproc);
    RequestStream stream(points.size(), args.seed);
    // The warm-up burst is the same for every seed, so set-up time does
    // not depend on the draw.
    RequestStream warmup(points.size(), 0);
    Burst warm;
    if (!session->start(&error) ||
        !sendBurst(*session, points, warmup, off, &warm, &error)) {
        report.errors.push_back("service set-up: " + error);
        return report;
    }
    const double setupS = msSince(gProcessStart) / 1e3;
    // Every result the session serves; the timed ones come first after
    // the warm-up burst.
    std::vector<ServiceResult> served = warm.results;

    // Timed phase.
    std::vector<double> latMs, burstMs;
    size_t completed = 0;
    const Clock::time_point t0 = Clock::now();
    while (burstMs.empty() || msSince(t0) < args.seconds * 1e3) {
        Burst burst;
        if (!sendBurst(*session, points, stream, off, &burst, &error)) {
            report.errors.push_back("service request: " + error);
            return report;
        }
        latMs.insert(latMs.end(), burst.latMs.begin(), burst.latMs.end());
        burstMs.push_back(burst.wallMs);
        completed += burst.results.size();
        served.insert(served.end(), burst.results.begin(),
                      burst.results.end());
        report.attempted += kBurst;
    }
    const double phaseS = msSince(t0) / 1e3;
    const double rssMb = peakRssMb();
    report.endToEnd.push_back({"setup_s", setupS, "s"});
    addLatencyMetrics(report, latMs, double(completed), phaseS);
    report.endToEnd.push_back({"peak_rss_mb", rssMb, "MB"});

    // Traced phase on the same server.
    Tracer tracer(args.trace);
    std::vector<ServiceResult> traced;
    double tracedWallMs = 0;
    if (args.trace) {
        const double protocolUs = protocolRoundTripUs(points[0], tracer);
        if (protocolUs < 0)
            report.errors.push_back("protocol round trip did not decode");
        report.perLayer.push_back({"service.protocol_us", protocolUs, "us"});
        const Clock::time_point t1 = Clock::now();
        while (traced.empty() || msSince(t1) < args.seconds * 1e3) {
            Burst burst;
            if (!sendBurst(*session, points, stream, tracer, &burst,
                           &error)) {
                report.errors.push_back("service request: " + error);
                return report;
            }
            tracedWallMs += burst.wallMs;
            traced.insert(traced.end(), burst.results.begin(),
                          burst.results.end());
        }
        served.insert(served.end(), traced.begin(), traced.end());
    }
    const StatSet counters = session->finish(&error);
    session.reset();

    // Output checks, outside the timed phases: every design point against
    // an uncached serial Platform::run (which also passes verifyMachine),
    // and against a one-worker ServiceCore; every served result against
    // its point.
    std::vector<PlatformResult> refs;
    std::vector<std::string> problems;
    ThreadPool refPool(std::max<size_t>(nproc - 1, 1));
    submitReferences(refPool, points, &refs, &problems);
    ServiceCore single(serviceOptions(1));
    for (const ServiceRequest &req : points)
        single.submit(req);
    const std::vector<ServiceResult> singleResults = single.flush();
    refPool.wait();
    if (singleResults.size() != points.size())
        report.errors.push_back("one-worker ServiceCore returned " +
                                std::to_string(singleResults.size()) +
                                " results");

    for (size_t i = 0; i < points.size(); ++i) {
        if (!problems[i].empty())
            report.errors.push_back(points[i].name + ": " + problems[i]);
        if (i >= singleResults.size())
            break;
        const ServiceResult &s = singleResults[i];
        if (s.status != ServiceStatus::Ok ||
            s.machineFingerprint != refs[i].machineFingerprint ||
            s.cycles != refs[i].sim.cycles)
            report.errors.push_back(
                points[i].name +
                ": one-worker ServiceCore differs from Platform::run");
        report.deterministic += pointDigest(points[i].name, refs[i]);
    }
    for (size_t k = 0; k < served.size(); ++k) {
        const ServiceResult &r = served[k];
        const PlatformResult &ref = refs[r.tag < refs.size() ? r.tag : 0];
        if (r.tag < refs.size() && r.status == ServiceStatus::Ok &&
            r.machineFingerprint == ref.machineFingerprint &&
            r.cycles == ref.sim.cycles)
            continue;
        report.errors.push_back(r.name + ": " +
                                serviceStatusName(r.status) + " " +
                                r.error + " (or differs from Platform::run)");
        // Warm-up and traced results are checked but are not attempts of
        // the timed phase.
        if (k >= kBurst && k < kBurst + report.attempted)
            ++report.failed;
    }

    std::vector<double> cycles;
    for (const PlatformResult &r : refs)
        cycles.push_back(r.sim.cycles);
    report.extra.push_back({"sim_cycles_geomean", geomean(cycles),
                            "cycles"});
    if (!args.trace)
        return report;

    // Per-layer numbers: the client's spans plus the public result
    // fields of the traced phase (per-stage wall-clock, queue and
    // service time) and the server's final counters.
    std::vector<double> ir, middle, backend, sim, simRate, queue, exec;
    double busyMs = 0;
    for (const ServiceResult &r : traced) {
        ir.push_back(jobMs(r, "ir"));
        middle.push_back(jobMs(r, "middle"));
        backend.push_back(jobMs(r, "backend"));
        sim.push_back(jobMs(r, "sim"));
        simRate.push_back(double(r.instructions) / (jobMs(r, "sim") / 1e3));
        queue.push_back(r.queueMs);
        exec.push_back(r.serviceMs - r.queueMs);
        busyMs += ir.back() + middle.back() + backend.back() + sim.back();
    }
    std::vector<Metric> &m = report.perLayer;
    m.push_back({"ir.build_ms", median(ir), "ms"});
    m.push_back({"compiler.middle_ms", median(middle), "ms"});
    m.push_back({"compiler.backend_ms", median(backend), "ms"});
    m.push_back({"sim.run_ms", median(sim), "ms"});
    m.push_back({"sim.insts_per_s", median(simRate), "1/s"});
    const double lookups = counters.get("cache.lookups");
    m.push_back({"compile_cache.hit_ratio",
                 lookups == 0 ? 0.0 : counters.get("cache.hits") / lookups,
                 "ratio"});
    m.push_back({"compile_cache.lookups", lookups, "count"});
    m.push_back({"compile_cache.evictions", counters.get("cache.evictions"),
                 "count"});
    m.push_back({"compile_cache.bytes", counters.get("cache.bytes"),
                 "bytes"});
    m.push_back({"runtime.worker_busy_frac",
                 busyMs / (double(nproc) * tracedWallMs), "ratio"});
    m.push_back({"service.queue_ms_p50", median(queue), "ms"});
    m.push_back({"service.exec_ms_p50", median(exec), "ms"});
    m.push_back({"service.batches", counters.get("service.batches"),
                 "count"});
    m.push_back({"service.rejected", counters.get("service.rejected"),
                 "count"});
    addPointCounts(report, refs);
    addTraceSummary(report, tracer, "bench.burst", median(burstMs));
    addNotRun(report, kStagedMetrics);
    addNotRun(report, kCkksMetrics);
    if (!args.traceFile.empty() && !tracer.write(args.traceFile))
        report.errors.push_back("cannot write " + args.traceFile);
    return report;
}

} // namespace repobench
