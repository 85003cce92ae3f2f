/**
 * @file
 * `paper-job`: the paper's unit of work, one closed-loop client running
 * fully-packed bootstrapping (logN 16, L 24) through `Platform::run`
 * uncached on ASIC-EFFACT with 27 MB of SRAM, alternating the `full`
 * and `optimized` presets (the seed picks which comes first). Every job
 * runs the IR builder, every compiler stage and the simulator once.
 */
#include <functional>
#include <map>

#include "compiler/pass_manager.h"
#include "harness.h"
#include "sched/depgraph.h"

namespace repobench {

using namespace effact;

namespace {

struct Preset
{
    std::string name;
    Platform platform;
};

std::vector<Preset>
makePresets()
{
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    return {{"full", Platform(hw, Platform::fullOptions(hw.sramBytes))},
            {"optimized",
             Platform(hw, Platform::optimizedOptions(hw.sramBytes))}};
}

Workload
buildJob()
{
    return buildBootstrapping(FheParams{});
}

/** One sweep of the preset's pipeline, pass by pass, on `prog`. */
void
tracePassSweep(const Platform &platform, IrProgram &prog, Tracer &tracer)
{
    static const std::map<std::string,
                          std::function<size_t(IrProgram &, StatSet &)>>
        passes = {
            {"copyprop",
             [](IrProgram &p, StatSet &s) { return runCopyProp(p, s); }},
            {"constprop",
             [](IrProgram &p, StatSet &s) { return runConstProp(p, s); }},
            {"rotalg",
             [](IrProgram &p, StatSet &s) { return runRotAlg(p, s); }},
            {"pre", [](IrProgram &p, StatSet &s) { return runPre(p, s); }},
            {"peephole",
             [](IrProgram &p, StatSet &s) { return runPeephole(p, s); }},
        };
    const CompilerOptions &opts = platform.compilerOptions();
    std::vector<std::string> names;
    parsePipelineSpec(opts.pipeline.empty() ? pipelineSpecFromOptions(opts)
                                            : opts.pipeline,
                      &names);
    StatSet stats;
    for (const std::string &name : names) {
        Span span(tracer, "compiler.pass." + name);
        passes.at(name)(prog, stats);
    }
}

/** The back end's phases called one by one, in `runBackEnd`'s order. */
uint64_t
traceBackEndPhases(const Platform &platform, const IrProgram &optimized,
                   Tracer &tracer)
{
    const CompilerOptions &opts = platform.compilerOptions();
    AnalysisManager analyses;
    StatSet stats;
    std::vector<int> order;
    StreamingInfo streaming;
    MachineProgram program;
    {
        Span span(tracer, "compiler.schedule");
        order = runScheduler(optimized, analyses, opts, stats);
    }
    {
        Span span(tracer, "compiler.streaming");
        streaming = runStreaming(optimized, order, opts.streaming,
                                 opts.fifoDepth, stats);
    }
    {
        Span span(tracer, "compiler.regalloc");
        program = runRegAllocAndCodegen(optimized, order, streaming, opts,
                                        stats);
    }
    return fingerprint(program);
}

} // namespace

Report
runPaperJob(const Args &args)
{
    Report report;
    const size_t first = args.seed % 2;

    // Set-up: the platforms plus one warm-up job, so the allocator's
    // arenas are faulted in before timing.
    std::vector<Preset> presets = makePresets();
    {
        Workload warm = buildJob();
        presets[first].platform.run(warm);
    }
    const double setupS = msSince(gProcessStart) / 1e3;

    // Timed phase: Platform::run, uncached, serial.
    std::vector<double> latMs;
    std::vector<std::pair<size_t, PlatformResult>> jobs;
    const Clock::time_point t0 = Clock::now();
    while (jobs.size() < kMinOps || msSince(t0) < args.seconds * 1e3) {
        const size_t p = (first + jobs.size()) % presets.size();
        const Clock::time_point j0 = Clock::now();
        Workload w = buildJob();
        PlatformResult r = presets[p].platform.run(w);
        latMs.push_back(msSince(j0));
        jobs.emplace_back(p, std::move(r));
    }
    const double phaseS = msSince(t0) / 1e3;
    const double rssMb = peakRssMb();

    report.endToEnd.push_back({"setup_s", setupS, "s"});
    addLatencyMetrics(report, latMs, double(jobs.size()), phaseS);
    report.endToEnd.push_back({"peak_rss_mb", rssMb, "MB"});
    report.attempted = jobs.size();

    // Output checks, outside the timed phase. Each design point is
    // compiled once more through the public stages: its machine code
    // must pass verifyMachine and equal Platform::run's in fingerprint
    // and cycles; every timed job must equal its point's result.
    std::vector<PlatformResult> points(presets.size());
    std::vector<bool> seen(presets.size(), false);
    for (const auto &[p, r] : jobs)
        if (!seen[p]) {
            points[p] = r;
            seen[p] = true;
        }
    Tracer off(false);
    for (size_t p = 0; p < presets.size(); ++p) {
        if (!seen[p]) {
            Workload w = buildJob();
            points[p] = presets[p].platform.run(w);
        }
        Workload w = buildJob();
        const StagedJob staged = runStaged(presets[p].platform, w, off);
        const std::string bad = verifyProgram(presets[p].platform,
                                              staged.program);
        if (!bad.empty())
            report.errors.push_back(presets[p].name + ": verifyMachine: " +
                                    bad);
        if (staged.fingerprint != points[p].machineFingerprint ||
            staged.sim.cycles != points[p].sim.cycles)
            report.errors.push_back(
                presets[p].name +
                ": staged compile differs from Platform::run");
    }
    for (const auto &[p, r] : jobs)
        if (r.machineFingerprint != points[p].machineFingerprint ||
            r.sim.cycles != points[p].sim.cycles) {
            ++report.failed;
            report.errors.push_back(presets[p].name +
                                    ": job differs from its point");
        }

    std::vector<double> cycles;
    for (size_t p = 0; p < presets.size(); ++p) {
        cycles.push_back(points[p].sim.cycles);
        report.deterministic += pointDigest(presets[p].name, points[p]);
    }
    report.extra.push_back({"sim_cycles_geomean", geomean(cycles),
                            "cycles"});
    if (!args.trace)
        return report;

    // Traced phase: the same jobs through the compiler's public stages,
    // with spans. The per-pass sweep, the back-end phases, the
    // machine-code DepGraph and verifyMachine run outside the job span.
    Tracer tracer(true);
    std::vector<double> simRate;
    const Clock::time_point t1 = Clock::now();
    for (size_t i = 0; i < kMinOps || msSince(t1) < args.seconds * 1e3;
         ++i) {
        const size_t p = (first + i) % presets.size();
        const Platform &platform = presets[p].platform;
        Workload w;
        StagedJob job;
        {
            Span span(tracer, "bench.job");
            {
                Span build(tracer, "ir.build");
                w = buildJob();
            }
            job = runStaged(platform, w, tracer);
        }
        simRate.push_back(double(job.sim.instructions) / (job.simMs / 1e3));
        Workload input = buildJob();
        tracePassSweep(platform, input.program, tracer);
        if (traceBackEndPhases(platform, w.program, tracer) !=
            job.fingerprint)
            report.errors.push_back(
                presets[p].name + ": back-end phases differ from runBackEnd");
        {
            Span span(tracer, "sched.depgraph");
            DepGraph::fromMachine(job.program);
        }
        std::string bad;
        {
            Span span(tracer, "verify.machine");
            bad = verifyProgram(platform, job.program);
        }
        if (!bad.empty())
            report.errors.push_back(presets[p].name + ": verifyMachine: " +
                                    bad);
        if (job.fingerprint != points[p].machineFingerprint ||
            job.sim.cycles != points[p].sim.cycles)
            report.errors.push_back(presets[p].name + ": traced job differs");
    }

    addSpanMedian(report, tracer, "ir.build_ms", "ir.build");
    addSpanMedian(report, tracer, "compiler.middle_ms", "compiler.middle");
    for (const char *pass :
         {"copyprop", "constprop", "rotalg", "pre", "peephole"})
        addSpanMedian(report, tracer,
                      std::string("compiler.pass.") + pass + "_ms",
                      std::string("compiler.pass.") + pass);
    addSpanMedian(report, tracer, "compiler.backend_ms", "compiler.backend");
    for (const char *phase : {"schedule", "streaming", "regalloc"})
        addSpanMedian(report, tracer,
                      std::string("compiler.") + phase + "_ms",
                      std::string("compiler.") + phase);
    addSpanMedian(report, tracer, "sched.depgraph_ms", "sched.depgraph");
    addSpanMedian(report, tracer, "sim.run_ms", "sim.run");
    report.perLayer.push_back({"sim.insts_per_s", median(simRate), "1/s"});
    addSpanMedian(report, tracer, "verify.machine_ms", "verify.machine");
    addPointCounts(report, points);
    addTraceSummary(report, tracer, "bench.job", median(latMs));
    addNotRun(report, kServiceMetrics);
    addNotRun(report, kCkksMetrics);
    if (!args.traceFile.empty() && !tracer.write(args.traceFile))
        report.errors.push_back("cannot write " + args.traceFile);
    return report;
}

} // namespace repobench
