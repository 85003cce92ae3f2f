/**
 * @file
 * The repository benchmark's binary. Runs one workload for one
 * seed, prints every metric by name with its unit, and ends its output
 * with one JSON line: {"correct", "attempted", "failed", "metrics"} —
 * the end-to-end metrics, or the per-layer ones with `--trace 1`.
 *
 *   repobench --workload paper-job|dse-service|ckks-boot --seed N
 *             --seconds S --trace 0|1 [--trace-file F] [--state-dir D]
 *             [--run-dir D] [--commit C]
 *
 * Exit status: 0 when every output check passed, 1 when any failed,
 * 2 on a usage or environment error (nothing is measured then).
 */
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/simd.h"
#include "harness.h"

#ifndef REPOBENCH_BUILD_TYPE
#define REPOBENCH_BUILD_TYPE "unknown"
#endif

using namespace repobench;

namespace {

/** Each of these changes the program under test, so a run refuses to
 *  start while any is set. */
const char *const kForbiddenEnv[] = {
    "EFFACT_VERIFY",      "EFFACT_SIMD",        "EFFACT_THREADS",
    "EFFACT_JOB_THREADS", "EFFACT_CACHE_BYTES", "EFFACT_QUEUE_DEPTH",
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "repobench: %s\n"
                 "usage: repobench --workload paper-job|dse-service|"
                 "ckks-boot --seed N --seconds S --trace 0|1 "
                 "[--trace-file F] [--state-dir D] [--run-dir D] "
                 "[--commit C]\n",
                 why);
    return 2;
}

/**
 * Compares this run's deterministic values with the record an earlier
 * run of the same workload and seed left in `--state-dir`. Only a run
 * with no errors writes a record. The directory must be private to one
 * build of the program (run.py names it after the binary's hash), since
 * a legitimate code change may change the values.
 */
void
checkDeterminism(const Args &args, Report &report)
{
    if (args.stateDir.empty())
        return;
    const std::string path = args.stateDir + "/" + args.workload + "-" +
                             std::to_string(args.seed) + ".txt";
    std::ifstream in(path);
    if (in) {
        std::stringstream previous;
        previous << in.rdbuf();
        if (previous.str() != report.deterministic)
            report.errors.push_back(
                "determinism: deterministic values differ from an earlier "
                "run of this build with the same seed (" + path + ")");
        return;
    }
    if (!report.errors.empty() || report.deterministic.empty())
        return;
    // Write then rename, so a concurrent or killed run never leaves a
    // partial record behind.
    ::mkdir(args.stateDir.c_str(), 0755);
    const std::string tmp = path + "." + std::to_string(::getpid());
    std::ofstream(tmp) << report.deterministic;
    std::rename(tmp.c_str(), path.c_str());
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    gProcessStart = Clock::now();
    Args args;
    std::string commit = "unknown";
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
            haveSeed = true;
        } else if (flag == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--trace-file")
            args.traceFile = value;
        else if (flag == "--state-dir")
            args.stateDir = value;
        else if (flag == "--run-dir")
            args.runDir = value;
        else if (flag == "--commit")
            commit = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (!haveSeed || !(args.seconds > 0))
        return usage("--seed and a positive --seconds are required");
    for (const char *name : kForbiddenEnv)
        if (std::getenv(name) != nullptr)
            return usage((std::string(name) +
                          " is set; it changes the program under test")
                             .c_str());

    Report report;
    if (args.workload == "paper-job")
        report = runPaperJob(args);
    else if (args.workload == "dse-service")
        report = runDseService(args);
    else if (args.workload == "ckks-boot")
        report = runCkksBoot(args);
    else
        return usage(("unknown workload '" + args.workload + "'").c_str());
    const std::vector<Metric> &shown =
        args.trace ? report.perLayer : report.endToEnd;
    std::set<std::string> names;
    for (const Metric &m : shown) {
        if (!std::isfinite(m.value))
            report.errors.push_back("metric " + m.name + " is not finite");
        if (!names.insert(m.name).second)
            report.errors.push_back("metric " + m.name + " reported twice");
    }
    checkDeterminism(args, report);

    std::printf("repobench %s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                int(args.trace));
    std::printf("environment: simd_tier=%s nproc=%u build_type=%s "
                "commit=%s\n",
                effact::simdTierName(effact::activeSimdTier()),
                std::thread::hardware_concurrency(), REPOBENCH_BUILD_TYPE,
                commit.c_str());
    report.extra.push_back(
        {"failed_frac",
         report.attempted == 0
             ? 1.0
             : double(report.failed) / double(report.attempted),
         "ratio"});
    for (const auto *group : {&report.endToEnd, &report.extra,
                              &report.perLayer})
        for (const Metric &m : *group)
            std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    std::printf("  attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));

    for (const std::string &e : report.errors)
        std::printf("error: %s\n", e.c_str());
    const bool correct = report.errors.empty() && report.attempted > 0;

    std::string json = "{\"correct\": " +
                       std::string(correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < shown.size(); ++i)
        json += (i ? ", \"" : "\"") + shown[i].name + "\": {\"value\": " +
                number(std::isfinite(shown[i].value) ? shown[i].value : 0) +
                ", \"unit\": \"" + shown[i].unit + "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
