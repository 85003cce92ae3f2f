#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/logging.h"
#include "compiler/pass_manager.h"
#include "verify/verify.h"

namespace repobench {

using namespace effact;

Clock::time_point gProcessStart = Clock::now();

double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / double(v.size()));
}

double
peakRssMb()
{
    struct rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
addLatencyMetrics(Report &report, const std::vector<double> &latMs,
                  double completed, double phaseSeconds)
{
    report.endToEnd.push_back({"latency_ms_p50", median(latMs), "ms"});
    report.endToEnd.push_back(
        {"throughput_per_s", completed / phaseSeconds, "1/s"});
    report.extra.push_back({"latency_samples", double(latMs.size()),
                            "count"});
    // A percentile is reported only with at least ten samples beyond it.
    if (latMs.size() >= 100)
        report.extra.push_back(
            {"latency_ms_p90", quantile(latMs, 0.9), "ms"});
}

const std::vector<Metric> kCompileMetrics = {
    {"ir.build_ms", 0, "ms"},
    {"ir.instructions", 0, "count"},
    {"compiler.middle_ms", 0, "ms"},
    {"compiler.optimized_instructions", 0, "count"},
    {"compiler.pipeline_iterations", 0, "count"},
    {"compiler.backend_ms", 0, "ms"},
    {"compiler.machine_instructions", 0, "count"},
    {"compiler.spill_loads", 0, "count"},
    {"compiler.spill_stores", 0, "count"},
    {"sim.run_ms", 0, "ms"},
    {"sim.insts_per_s", 0, "1/s"},
    {"sim.cycles", 0, "cycles"},
    {"sim.dram_util", 0, "ratio"},
    {"sim.ntt_util", 0, "ratio"},
    {"sim.muladd_util", 0, "ratio"},
    {"sim.auto_util", 0, "ratio"},
};

const std::vector<Metric> kStagedMetrics = {
    {"compiler.pass.copyprop_ms", 0, "ms"},
    {"compiler.pass.constprop_ms", 0, "ms"},
    {"compiler.pass.rotalg_ms", 0, "ms"},
    {"compiler.pass.pre_ms", 0, "ms"},
    {"compiler.pass.peephole_ms", 0, "ms"},
    {"compiler.schedule_ms", 0, "ms"},
    {"compiler.streaming_ms", 0, "ms"},
    {"compiler.regalloc_ms", 0, "ms"},
    {"sched.depgraph_ms", 0, "ms"},
    {"verify.machine_ms", 0, "ms"},
    {"ir.self_ms", 0, "ms"},
    {"compiler.self_ms", 0, "ms"},
    {"sim.self_ms", 0, "ms"},
};

const std::vector<Metric> kServiceMetrics = {
    {"compile_cache.hit_ratio", 0, "ratio"},
    {"compile_cache.lookups", 0, "count"},
    {"compile_cache.evictions", 0, "count"},
    {"compile_cache.bytes", 0, "bytes"},
    {"runtime.worker_busy_frac", 0, "ratio"},
    {"service.protocol_us", 0, "us"},
    {"service.queue_ms_p50", 0, "ms"},
    {"service.exec_ms_p50", 0, "ms"},
    {"service.batches", 0, "count"},
    {"service.rejected", 0, "count"},
    {"service.self_ms", 0, "ms"},
};

const std::vector<Metric> kCkksMetrics = {
    {"math.ntt_fwd_us", 0, "us"},
    {"math.ntt_inv_us", 0, "us"},
    {"rns.bconv_us", 0, "us"},
    {"ckks.keyswitch_ms", 0, "ms"},
    {"ckks.rotate_ms", 0, "ms"},
    {"ckks.mult_ms", 0, "ms"},
    {"ckks.boot.modraise_ms", 0, "ms"},
    {"ckks.boot.cts_ms", 0, "ms"},
    {"ckks.boot.evalmod_ms", 0, "ms"},
    {"ckks.boot.stc_ms", 0, "ms"},
    {"ckks.self_ms", 0, "ms"},
};

void
addNotRun(Report &report, const std::vector<Metric> &group)
{
    report.perLayer.insert(report.perLayer.end(), group.begin(),
                           group.end());
}

// --- Tracer -----------------------------------------------------------------

uint64_t
Tracer::begin(const std::string &name)
{
    SpanRec rec;
    rec.name = name;
    rec.id = nextId_++;
    rec.startUs = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - origin_)
                      .count();
    if (!open_.empty()) {
        rec.parent = spans_[open_.back()].id;
        rec.op = spans_[open_.back()].op;
    } else {
        rec.op = rec.id;
    }
    open_.push_back(spans_.size());
    spans_.push_back(std::move(rec));
    return spans_.back().id;
}

void
Tracer::end(uint64_t id)
{
    SpanRec &rec = spans_[open_.back()];
    EFFACT_ASSERT(rec.id == id, "span '%s' closed out of order",
                  rec.name.c_str());
    rec.endUs = std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - origin_)
                    .count();
    open_.pop_back();
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const SpanRec &rec : spans_)
        if (rec.name == name)
            out.push_back(double(rec.endUs - rec.startUs) / 1e3);
    return out;
}

std::vector<Metric>
Tracer::selfTimePerOp() const
{
    std::map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans_.size(); ++i)
        index[spans_[i].id] = i;
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = double(spans_[i].endUs - spans_[i].startUs);
    for (const SpanRec &rec : spans_)
        if (rec.parent != 0)
            self[index[rec.parent]] -= double(rec.endUs - rec.startUs);

    size_t ops = 0;
    std::map<std::string, double> layerUs;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &root = spans_[index[spans_[i].op]];
        if (root.name.rfind("bench.", 0) != 0)
            continue;
        if (spans_[i].parent == 0)
            ++ops;
        const std::string &name = spans_[i].name;
        layerUs[name.substr(0, name.find('.'))] += self[i];
    }
    std::vector<Metric> out;
    for (const auto &[layer, us] : layerUs)
        out.push_back({layer + ".self_ms",
                       ops == 0 ? 0.0 : us / 1e3 / double(ops), "ms"});
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &rec = spans_[i];
        const std::string layer = rec.name.substr(0, rec.name.find('.'));
        out << "{\"name\":\"" << rec.name << "\",\"cat\":\"" << layer
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << rec.startUs
            << ",\"dur\":" << (rec.endUs - rec.startUs)
            << ",\"args\":{\"id\":" << rec.id << ",\"parent\":"
            << rec.parent << ",\"op\":" << rec.op << "}}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return bool(out);
}

void
addTraceSummary(Report &report, const Tracer &tracer,
                const std::string &opSpan, double untracedP50Ms)
{
    for (const Metric &m : tracer.selfTimePerOp())
        report.perLayer.push_back(m);
    const double traced = median(tracer.durations(opSpan));
    report.perLayer.push_back({"trace.spans", double(tracer.spans().size()),
                               "count"});
    report.perLayer.push_back(
        {"trace.overhead_ms", traced - untracedP50Ms, "ms"});
    report.perLayer.push_back(
        {"trace.overhead_frac", (traced - untracedP50Ms) / untracedP50Ms,
         "ratio"});
}

void
addSpanMedian(Report &report, const Tracer &tracer, const std::string &name,
              const std::string &span)
{
    report.perLayer.push_back({name, median(tracer.durations(span)), "ms"});
}

// --- Staged compile and simulate --------------------------------------------

StagedJob
runStaged(const Platform &platform, Workload &workload, Tracer &tracer)
{
    StagedJob job;
    const Compiler compiler(platform.compilerOptions());
    AnalysisManager analyses;
    {
        Span span(tracer, "compiler.middle");
        compiler.runMiddleEnd(workload.program, analyses, job.stats);
    }
    {
        Span span(tracer, "compiler.backend");
        job.program =
            compiler.runBackEnd(workload.program, analyses, job.stats);
    }
    {
        Span span(tracer, "sim.run");
        const Clock::time_point t0 = Clock::now();
        job.sim = Simulator(platform.hardware()).run(job.program);
        job.simMs = msSince(t0);
    }
    job.fingerprint = fingerprint(job.program);
    return job;
}

std::string
verifyProgram(const Platform &platform, const MachineProgram &program)
{
    MachVerifyBudget budget;
    budget.sramBytes = platform.hardware().sramBytes;
    const VerifyReport report = verifyMachine(program, budget);
    return report.ok() ? std::string() : report.toString(3);
}

std::string
pointDigest(const std::string &name, const PlatformResult &result)
{
    const StatSet &cs = result.compilerStats;
    std::ostringstream out;
    out << name << " cycles=" << std::llround(result.sim.cycles)
        << " fingerprint=" << std::hex << result.machineFingerprint
        << std::dec
        << " ir=" << std::llround(cs.get("input.instructions"))
        << " optimized=" << std::llround(cs.get("optimized.instructions"))
        << " sweeps=" << std::llround(cs.get("pipeline.iterations"))
        << " machine=" << result.sim.instructions
        << " spill_loads=" << std::llround(cs.get("regalloc.spillLoads"))
        << " spill_stores=" << std::llround(cs.get("regalloc.spillStores"))
        << "\n";
    return out.str();
}

void
addPointCounts(Report &report, const std::vector<PlatformResult> &points)
{
    auto gm = [&points](auto field) {
        std::vector<double> v;
        for (const PlatformResult &p : points)
            v.push_back(field(p));
        return geomean(v);
    };
    auto stat = [&gm](const char *key) {
        // +1 keeps a zero count (no spills) inside the geometric mean.
        return gm([key](const PlatformResult &p) {
                   return p.compilerStats.get(key) + 1;
               }) -
               1;
    };
    std::vector<Metric> &m = report.perLayer;
    m.push_back({"ir.instructions", stat("input.instructions"), "count"});
    m.push_back({"compiler.optimized_instructions",
                 stat("optimized.instructions"), "count"});
    m.push_back({"compiler.pipeline_iterations",
                 stat("pipeline.iterations"), "count"});
    m.push_back({"compiler.machine_instructions",
                 gm([](const PlatformResult &p) {
                     return double(p.sim.instructions);
                 }),
                 "count"});
    m.push_back({"compiler.spill_loads", stat("regalloc.spillLoads"),
                 "count"});
    m.push_back({"compiler.spill_stores", stat("regalloc.spillStores"),
                 "count"});
    m.push_back({"sim.cycles",
                 gm([](const PlatformResult &p) { return p.sim.cycles; }),
                 "cycles"});
    // Utilizations can be 0 (a unit a preset never uses): arithmetic mean.
    auto mean = [&points](double SimReport::*field) {
        double sum = 0;
        for (const PlatformResult &p : points)
            sum += p.sim.*field;
        return points.empty() ? 0.0 : sum / double(points.size());
    };
    m.push_back({"sim.dram_util", mean(&SimReport::dramUtil), "ratio"});
    m.push_back({"sim.ntt_util", mean(&SimReport::nttUtil), "ratio"});
    m.push_back({"sim.muladd_util", mean(&SimReport::mulAddUtil), "ratio"});
    m.push_back({"sim.auto_util", mean(&SimReport::autoUtil), "ratio"});
}

} // namespace repobench
