/**
 * @file
 * The EFFACT platform facade: compile a workload with the EFFACT
 * compiler backend, execute it on the cycle-level simulator, and
 * report benchmark-level results. Ablation presets reproduce the
 * incremental design points of Fig. 11.
 */
#ifndef EFFACT_PLATFORM_PLATFORM_H
#define EFFACT_PLATFORM_PLATFORM_H

#include "compiler/pass.h"
#include "ir/workloads.h"
#include "sim/machine.h"

namespace effact {

class CompileCache; // compiler/compile_cache.h

/** Benchmark-level result. */
struct PlatformResult
{
    SimReport sim;            ///< one program instance
    StatSet compilerStats;
    /**
     * Per-stage wall-clock of this job (`job.middle.ms`,
     * `job.backend.ms`, `job.sim.ms`, `job.fingerprint.ms`, and
     * `job.total.ms` from the first of those clock reads to the last,
     * which the four sum to; `runSweep` adds `job.ir.ms` for
     * workload construction). Host timings, not simulated ones — the
     * one result family that is *not* deterministic.
     */
    StatSet jobStats;
    double benchTimeMs = 0;   ///< program time x workload repeat factor
    double amortizedUs = 0;   ///< per-slot amortized time (bootstrapping)
    double dramGb = 0;        ///< DRAM traffic of the full benchmark
    /** `fingerprint()` of the compiled machine code: equal fingerprints
     *  mean codegen emitted identical instruction streams, which is how
     *  batch runs prove thread-count independence. */
    uint64_t machineFingerprint = 0;
};

/** Compile-and-simulate driver. */
class Platform
{
  public:
    Platform(HardwareConfig hw, CompilerOptions copts);

    /**
     * Runs a workload end-to-end (mutates its IR through the passes).
     * With a shared `cache` (default null = uncached) the hardware-
     * independent middle end of the compile is reused across every
     * `Platform` that shares the cache, so a hardware sweep optimizes
     * each (workload, preset) once. Hits are byte-identical to
     * uncached compiles (see `Compiler::compile`).
     */
    PlatformResult run(Workload &workload,
                       CompileCache *cache = nullptr) const;

    const HardwareConfig &hardware() const { return hw_; }
    const CompilerOptions &compilerOptions() const { return copts_; }

    // --- Fig. 11 ablation presets ---------------------------------------

    /** Resource-constrained baseline: no compiler or hardware opts. */
    static CompilerOptions baselineOptions(size_t sram_bytes);

    /** + MAD-style caching (on-chip reuse) without global scheduling. */
    static CompilerOptions madEnhancedOptions(size_t sram_bytes);

    /** + EFFACT global scheduling and streaming memory access. */
    static CompilerOptions streamingOptions(size_t sram_bytes);

    /** Full EFFACT (adds the circuit-level NTT reuse on the hw side). */
    static CompilerOptions fullOptions(size_t sram_bytes);

    /**
     * Full EFFACT plus the PR 10 pass-zoo additions: the rotation-chain
     * algebraic rewrite in the pipeline, the priority spill policy, and
     * the `ResourceModel`-weighted list scheduler. A separate preset —
     * the four Fig. 11 factories above stay byte-for-byte what the
     * paper ablates (and what the perf-lane fingerprints pin).
     */
    static CompilerOptions optimizedOptions(size_t sram_bytes);

  private:
    HardwareConfig hw_;
    CompilerOptions copts_;
};

} // namespace effact

#endif // EFFACT_PLATFORM_PLATFORM_H
