/**
 * @file
 * Fig. 10 — performance scaling of EFFACT-54/108/162 (SRAM + multiplier
 * scaling) over EFFACT-27 on bootstrapping, HELR and ResNet.
 *
 * The 4 x 3 (config, workload) grid runs as one `runSweep` batch
 * over a shared `CompileCache`: all four hardware configs share one
 * middle-end pipeline run per workload (the SRAM/multiplier scaling is
 * back-end-only), asserted below via the `cache.*` stats. Results come
 * back in job order, so stdout is byte-identical at any
 * `EFFACT_THREADS` setting and any cache hit pattern (wall-clock and
 * cache notes go to stderr).
 */
#include "bench_common.h"

#include "common/logging.h"

using namespace effact;

int
main()
{
    std::vector<HardwareConfig> configs = {
        HardwareConfig::asicEffact27(), HardwareConfig::asicEffact54(),
        HardwareConfig::asicEffact108(), HardwareConfig::asicEffact162()};

    struct BenchRow
    {
        const char *name;
        Workload (*build)(const FheParams &);
    };
    std::vector<BenchRow> benches = {
        {"Bootstrapping",
         [](const FheParams &f) { return buildBootstrapping(f, {}); }},
        {"HELR", buildHelr},
        {"ResNet", buildResNet20},
    };

    std::vector<SweepJob> jobs;
    for (const auto &hw : configs) {
        for (const BenchRow &bench : benches) {
            Workload (*build)(const FheParams &) = bench.build;
            jobs.push_back({std::string(hw.name) + "/" + bench.name,
                            [build] { return build(paperFhe()); }, hw,
                            Platform::fullOptions(hw.sramBytes)});
        }
    }
    CompileCache cache;
    const std::vector<PlatformResult> results =
        runTimed(jobs, compileCacheEnabled() ? &cache : nullptr);
    if (compileCacheEnabled()) {
        reportCacheStats(cache);
        const StatSet cs = cache.statsSnapshot();
        EFFACT_ASSERT(cs.get("cache.misses") == double(benches.size()),
                      "the %zu-job grid must run exactly %zu middle-end "
                      "pipelines (one per workload), ran %.0f",
                      jobs.size(), benches.size(),
                      cs.get("cache.misses"));
    }

    Table table("Fig. 10 — speedup over EFFACT-27");
    table.header({"config", "Bootstrapping", "HELR", "ResNet"});

    // results[c * benches + b] is (config c, workload b).
    auto timeOf = [&](size_t c, size_t b) {
        return results[c * benches.size() + b].benchTimeMs;
    };
    for (size_t c = 0; c < configs.size(); ++c) {
        std::vector<std::string> row = {configs[c].name};
        for (size_t b = 0; b < benches.size(); ++b)
            row.push_back(Table::num(timeOf(0, b) / timeOf(c, b), 4) + "x");
        table.row(row);
    }
    table.print();

    std::puts("Paper reference (Fig. 10): monotone speedups up to");
    std::puts("~2.5-3.4x at EFFACT-162; EFFACT-108 overtakes ARK and");
    std::puts("CraterLake on HELR/ResNet; bootstrapping needs");
    std::puts("EFFACT-162 to catch up (more memory-intensive).");
    return 0;
}
