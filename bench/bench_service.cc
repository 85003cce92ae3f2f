/**
 * @file
 * Service-mode vs batch-mode throughput on the Fig. 11-shaped grid
 * (4 presets x 3 SRAM points of one workload, reduced to db-lookup
 * scale so the comparison runs in seconds). Both modes execute the
 * same 12 design points on the same worker count:
 *
 * - batch: one `runSweep` over a shared `CompileCache` —
 *   the pre-daemon path;
 * - service: the same jobs as framed `ServiceRequest`s driven through
 *   a `ServiceCore` via `replayFrames`, i.e. the daemon path minus the
 *   socket: protocol encode/decode, validation, admission, windowing
 *   and the bounded cache all included.
 *
 * The deterministic grid results go to stdout (byte-identical across
 * modes, thread counts and cache budgets — asserted below); wall-clock
 * and overhead notes go to stderr, `bench/NOTES.md` records them.
 */
#include "bench_common.h"

#include <chrono>

#include "common/logging.h"
#include "service/service.h"

using namespace effact;

namespace {

struct GridPoint
{
    std::string name;
    size_t sramBytes = 0;
    CompilerOptions copts;
};

std::vector<GridPoint>
fig11ShapedGrid()
{
    struct Step
    {
        const char *name;
        CompilerOptions (*options)(size_t);
    };
    const std::vector<Step> steps = {
        {"baseline", Platform::baselineOptions},
        {"MAD-enhanced", Platform::madEnhancedOptions},
        {"streaming", Platform::streamingOptions},
        {"full", Platform::fullOptions},
    };
    const std::vector<size_t> sram_points = {
        size_t(27) << 20, size_t(13) << 20, size_t(54) << 20};
    std::vector<GridPoint> grid;
    for (size_t s = 0; s < sram_points.size(); ++s)
        for (const Step &step : steps)
            grid.push_back({std::string(step.name) + "/sram" +
                                std::to_string(sram_points[s] >> 20),
                            sram_points[s], step.options(sram_points[s])});
    return grid;
}

FheParams
benchFhe()
{
    FheParams fhe;
    fhe.logN = 13;
    fhe.levels = 8;
    fhe.dnum = 2;
    return fhe;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main()
{
    const std::vector<GridPoint> grid = fig11ShapedGrid();
    const size_t threads = defaultThreadCount();
    constexpr size_t kRecords = 64;
    constexpr int kRounds = 4; // repeat the grid: cache-hot service reuse

    // --- batch mode --------------------------------------------------------
    std::vector<SweepJob> jobs;
    for (int round = 0; round < kRounds; ++round)
        for (const GridPoint &pt : grid) {
            HardwareConfig hw = HardwareConfig::asicEffact27();
            hw.sramBytes = pt.sramBytes;
            jobs.push_back({pt.name, [] {
                return buildDbLookup(benchFhe(), kRecords);
            }, hw, pt.copts});
        }
    CompileCache batch_cache;
    const auto batch_t0 = std::chrono::steady_clock::now();
    const std::vector<PlatformResult> batch = runSweep(
        jobs, threads, compileCacheEnabled() ? &batch_cache : nullptr);
    const double batch_s = secondsSince(batch_t0);

    // --- service mode ------------------------------------------------------
    // The same jobs as a recorded session: one burst per round, flushed
    // like a client would. Requests travel through the real wire
    // encoding, so protocol overhead is part of the measurement.
    std::vector<Frame> frames;
    for (int round = 0; round < kRounds; ++round) {
        for (const GridPoint &pt : grid) {
            ServiceRequest req;
            req.tag = frames.size();
            req.name = pt.name;
            req.workload = "dblookup";
            req.fhe = benchFhe();
            req.param = kRecords;
            req.hw = HardwareConfig::asicEffact27();
            req.hw.sramBytes = pt.sramBytes;
            req.copts = pt.copts;
            Frame frame;
            frame.type = FrameType::Request;
            frame.payload = encodeRequest(req);
            frames.push_back(std::move(frame));
        }
        Frame flush;
        flush.type = FrameType::Flush;
        frames.push_back(std::move(flush));
    }

    ServiceOptions opts;
    opts.threads = threads;
    opts.queueCapacity = grid.size() * kRounds; // admission never bites here
    opts.batchSize = grid.size();
    opts.useCache = compileCacheEnabled();
    ServiceCore core(opts);
    ReplayOutcome outcome;
    std::string error;
    const auto service_t0 = std::chrono::steady_clock::now();
    const bool ok = replayFrames(frames, core, &outcome, &error);
    const double service_s = secondsSince(service_t0);
    EFFACT_ASSERT(ok, "service replay failed: %s", error.c_str());
    EFFACT_ASSERT(outcome.results.size() == batch.size(),
                  "service returned %zu results for %zu jobs",
                  outcome.results.size(), batch.size());

    // Same results, job for job — the service layer adds plumbing, not
    // perturbation.
    for (size_t i = 0; i < batch.size(); ++i) {
        const ServiceResult &svc = outcome.results[i];
        EFFACT_ASSERT(svc.status == ServiceStatus::Ok, "job %zu: %s", i,
                      svc.error.c_str());
        EFFACT_ASSERT(svc.machineFingerprint == batch[i].machineFingerprint,
                      "job %zu (%s): service fingerprint diverged", i,
                      jobs[i].name.c_str());
        EFFACT_ASSERT(svc.cycles == batch[i].sim.cycles,
                      "job %zu (%s): service cycles diverged", i,
                      jobs[i].name.c_str());
    }

    // Deterministic grid table (first round only; later rounds repeat).
    Table table("service vs batch — Fig. 11-shaped db-lookup grid");
    table.header({"design point", "cycles", "instructions"});
    for (size_t i = 0; i < grid.size(); ++i) {
        const ServiceResult &svc = outcome.results[i];
        table.row({svc.name, Table::num(svc.cycles),
                   Table::num(double(svc.instructions))});
    }
    table.print();

    const size_t n = batch.size();
    std::fprintf(stderr,
                 "[service-bench] %zu jobs x %zu worker(s)\n"
                 "  batch   : %.3f s (%.1f jobs/s)\n"
                 "  service : %.3f s (%.1f jobs/s, overhead %+.1f%%)\n",
                 n, threads, batch_s, double(n) / batch_s, service_s,
                 double(n) / service_s,
                 100.0 * (service_s - batch_s) / batch_s);
    if (compileCacheEnabled()) {
        reportCacheStats(batch_cache);
        reportCacheStats(core.cache());
    }
    return 0;
}
