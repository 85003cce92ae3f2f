/**
 * @file
 * Fig. 11 — incremental optimization study on fully-packed
 * bootstrapping under the resource-constrained setting (27 MB SRAM,
 * 1 TB/s, 2048 multipliers): baseline -> MAD-enhanced -> EFFACT global
 * scheduling + streaming -> full EFFACT (adds circuit-level NTT reuse).
 *
 * The whole preset grid — the four canonical design points plus a
 * preset x SRAM sensitivity grid — runs as one `runSweep` batch over
 * a shared `CompileCache`: the 12 jobs share 4 middle-end pipeline runs
 * (one per preset; the SRAM split is back-end-only), asserted below via
 * the `cache.*` stats. Results come back in job order, so stdout is
 * byte-identical at any `EFFACT_THREADS` setting — and at any cache
 * hit pattern, including `EFFACT_COMPILE_CACHE=0` (CI's perf job diffs
 * `EFFACT_THREADS=1`, `=4` and the uncached run); wall-clock and cache
 * notes go to stderr.
 */
#include "bench_common.h"

#include "common/logging.h"

using namespace effact;

int
main()
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.hbmBytesPerSec = 1.0e12; // Fig. 11 uses 1 TB/s for simplicity

    struct Step
    {
        const char *name;
        CompilerOptions (*options)(size_t);
        bool mac_reuse;
    };
    const std::vector<Step> steps = {
        {"baseline", Platform::baselineOptions, false},
        {"MAD-enhanced", Platform::madEnhancedOptions, false},
        {"global streaming & memory opt", Platform::streamingOptions,
         false},
        {"full EFFACT", Platform::fullOptions, true},
    };
    // SRAM sensitivity points of the grid (canonical 27 MB first).
    const std::vector<size_t> sram_points = {
        size_t(27) << 20, size_t(13) << 20, size_t(54) << 20};

    std::vector<SweepJob> jobs;
    for (size_t sram_bytes : sram_points) {
        for (const Step &step : steps) {
            HardwareConfig cfg = hw;
            cfg.nttMacReuse = step.mac_reuse;
            cfg.sramBytes = sram_bytes;
            jobs.push_back({step.name,
                            [] { return buildBootstrapping(paperFhe()); },
                            cfg, step.options(sram_bytes)});
        }
    }
    CompileCache cache;
    const std::vector<PlatformResult> results =
        runTimed(jobs, compileCacheEnabled() ? &cache : nullptr);
    if (compileCacheEnabled()) {
        // The hardware split in action: 12 jobs, one middle-end
        // pipeline run per preset. Single-flight makes the counts exact
        // at any thread count.
        reportCacheStats(cache);
        const StatSet cs = cache.statsSnapshot();
        EFFACT_ASSERT(cs.get("cache.lookups") == double(jobs.size()),
                      "every job must consult the shared cache");
        EFFACT_ASSERT(cs.get("cache.misses") == double(steps.size()),
                      "the %zu-job grid must run exactly %zu middle-end "
                      "pipelines (one per preset), ran %.0f",
                      jobs.size(), steps.size(), cs.get("cache.misses"));
    }

    // results[s * steps + k] is (sram point s, design point k); the
    // canonical Fig. 11 table is the first SRAM point.
    Table table("Fig. 11 — bootstrapping DRAM transfer & runtime");
    table.header({"design point", "DRAM transfer (GB)",
                  "runtime (ms)"});
    for (size_t k = 0; k < steps.size(); ++k) {
        const PlatformResult &r = results[k];
        table.row({steps[k].name, Table::num(r.dramGb, 4),
                   Table::num(r.benchTimeMs, 4)});
    }
    table.print();
    const PlatformResult &base = results.front();
    const PlatformResult &full = results[steps.size() - 1];
    std::printf("baseline -> full reduction: DRAM %.2fx, runtime %.2fx\n",
                base.dramGb / full.dramGb,
                base.benchTimeMs / full.benchTimeMs);

    Table grid("Fig. 11 (cont.) — runtime (ms) across SRAM budgets");
    grid.header({"design point", "13 MB", "27 MB", "54 MB"});
    // Column order is by SRAM size; job order put 27 MB first.
    const std::vector<size_t> col_of_point = {1, 0, 2};
    for (size_t k = 0; k < steps.size(); ++k) {
        std::vector<std::string> row = {steps[k].name};
        for (size_t col = 0; col < sram_points.size(); ++col) {
            const size_t s = col_of_point[col];
            const PlatformResult &r = results[s * steps.size() + k];
            row.push_back(Table::num(r.benchTimeMs, 4));
        }
        grid.row(row);
    }
    grid.print();

    std::puts("Paper reference (Fig. 11): MAD-enhanced cuts ~1.24x over");
    std::puts("baseline; EFFACT scheduling+streaming removes 42.2% of");
    std::puts("DRAM transfer and 30.6% of runtime; NTT reuse adds a");
    std::puts("further 1.1x runtime (no DRAM change).");
    return 0;
}
