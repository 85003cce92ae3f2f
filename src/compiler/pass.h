/**
 * @file
 * Compiler backend driver (Sec. IV-B): the options that name each
 * compiler decision once (pass pipeline spec, scheduling and spill
 * policies), SSA optimization passes, alias analysis, global static
 * scheduling, linear-scan SRAM allocation, streaming-merge, and
 * machine-code generation.
 */
#ifndef EFFACT_COMPILER_PASS_H
#define EFFACT_COMPILER_PASS_H

#include <cstdint>

#include "common/stats.h"
#include "ir/ir.h"
#include "isa/isa.h"

namespace effact {

int defaultVerifyLevel(); // verify/verify.h (EFFACT_VERIFY)

/**
 * Global list-scheduling policy of the back end (`runScheduler`). The
 * two reordering policies share the windowed list scheduler and differ
 * only in the per-instruction weights behind its critical-path
 * priorities.
 */
enum class Scheduler : uint8_t
{
    ProgramOrder, ///< no global scheduling: IR program order
    /** Legacy static weights (NTT 16 / mem 8 / MAC 1.5 / else 1). */
    CriticalPath,
    /**
     * Weights from the simulator's own occupancy model (lane-normalized
     * NTT butterfly count, HBM bytes/cycle, startup overhead — see
     * `ResourceModel`), so the longest path is measured in modeled
     * cycles rather than abstract units.
     */
    Latency,
};

/** Spill-victim policy of the SRAM register allocator. */
enum class RegAllocPolicy : uint8_t
{
    Linear, ///< legacy furthest-interval-end heuristic
    /**
     * Scores candidates against the spill-dominated cycle model: evict
     * the value minimizing (reloads still due + 1) / (distance to its
     * interval end), i.e. the fewest reload instructions
     * re-materialized per cycle of occupancy freed. `Linear` is kept
     * as the differential oracle.
     */
    Priority,
};

/** One field per compiler decision; the Fig. 11 ablation presets are
 *  values of this struct (see `Platform`). */
struct CompilerOptions
{
    /**
     * Declarative optimization pipeline, a comma-separated pass-name
     * spec; the only way to select passes. The default is the four
     * stock passes; empty runs none. The pipeline runs to a bounded
     * fixed point (see `PassManager`).
     */
    std::string pipeline = "copyprop,constprop,pre,peephole";
    /**
     * Back-end scheduling policy. Scheduling is back-end (hardware-
     * dependent), but the policy *is* mixed into `middleEndPresetHash`
     * so sweeps that vary it never share middle-end snapshots with
     * mismatched stats expectations.
     */
    Scheduler scheduler = Scheduler::CriticalPath;
    bool streaming = true; ///< streaming memory access (Sec. IV-C)
    RegAllocPolicy regalloc = RegAllocPolicy::Linear; ///< spill policy
    /** Vector lanes of the target (drives the latency scheduler's
     *  occupancy weights); `Platform` overwrites it from
     *  `HardwareConfig::lanes`. */
    size_t lanes = 1024;
    /** HBM bandwidth in bytes per clock at the target frequency;
     *  `Platform` overwrites it from
     *  `HardwareConfig::hbmBytesPerCycle()`. */
    double hbmBytesPerCycle = 2400.0;
    size_t sramBytes = size_t(27) << 20; ///< on-chip SRAM capacity
    size_t fifoDepth = 96; ///< FU-to-FU forwarding window (instructions)
    /** Target machine's OoO scoreboard depth (the span over which the
     *  regalloc measures spill-reload pressure); `Platform` overwrites
     *  it with `HardwareConfig::issueWindow`. */
    size_t issueWindow = 64;
    /**
     * Checkpoint verification level: 0 = off, > 0 = run the IR verifier
     * after every optimization pass and at the middle-end boundaries,
     * and the machine verifier at back-end exit, panicking on the first
     * malformed program (see verify/verify.h). Defaults to the
     * `EFFACT_VERIFY` environment variable so test binaries opt in
     * without code changes; Release benches leave it off. Verification
     * never changes the emitted code, but it does add `verify.*` stats,
     * so `middleEndPresetHash` mixes in whether it is on: verified and
     * unverified compiles keep separate `CompileCache` entries.
     */
    int verifyLevel = defaultVerifyLevel();
};

// --- Individual passes ----------------------------------------------------
// Each records detailed statistics and returns its total number of
// rewrites, so the pass-manager layer can detect change (and keep
// cached analyses sound) without duplicating the passes' stat keys.

/** Copy propagation: removes VecCopy chains. */
size_t runCopyProp(IrProgram &prog, StatSet &stats);

/** Constant propagation/folding on immediate operands. */
size_t runConstProp(IrProgram &prog, StatSet &stats);

/** Value-numbering PRE: removes redundant computations and re-loads of
 *  read-only data (models on-chip key/constant reuse). */
size_t runPre(IrProgram &prog, StatSet &stats);

/** Peephole computation merge: MUL+ADD -> MAC (executed on reused NTT
 *  units, Sec. III-2) and iNTT 1/N post-scale folding into BConv
 *  constants (Eq. 5). */
size_t runPeephole(IrProgram &prog, StatSet &stats);

/**
 * Rotation-chain algebraic rewrite (spec key `"rotalg"`): composes
 * chains of automorphisms into a single rotation from the chain root
 * (sigma_a . sigma_b = sigma_{a*b mod 2N}), folds identity rotations
 * (element = 1 mod 2N) into copies, canonicalizes Galois elements into
 * [1, 2N), and retires rotation instructions left without uses.
 * Composition both shortens serial sigma-chains (each hoisted rotation
 * depends only on the chain root, exposing parallelism on the scarce
 * AUTO unit) and canonicalizes equal net rotations onto one Galois
 * element so PRE can deduplicate them.
 */
size_t runRotAlg(IrProgram &prog, StatSet &stats);

/**
 * Alias analysis (Sec. IV-B2): orders memory operations that may touch
 * the same HBM location. Returns extra dependence edges (from, to).
 */
std::vector<std::pair<int, int>> runAliasAnalysis(const IrProgram &prog,
                                                  StatSet &stats);

class AnalysisManager; // pass_manager.h

/**
 * Global list scheduling on the SSA + memory dependence graph using
 * critical-path priorities (longest path to a sink). Consumes the
 * cached `DepGraph` analysis (built on demand unless `opts.scheduler`
 * is `ProgramOrder`). `opts.scheduler` selects the per-instruction
 * latency model behind the priorities (`Latency` takes its
 * `ResourceModel` occupancy weights from `opts.lanes` /
 * `opts.hbmBytesPerCycle`). Returns the instruction order.
 */
std::vector<int> runScheduler(const IrProgram &prog,
                              AnalysisManager &analyses,
                              const CompilerOptions &opts,
                              StatSet &stats);

/** Streaming decision per value (Sec. IV-B3). */
struct StreamingInfo
{
    std::vector<uint8_t> streamedLoad;   ///< load feeds its FU directly
    std::vector<uint8_t> streamedStore;  ///< result streams to DRAM
    std::vector<uint8_t> fifoForward;    ///< FU-to-FU FIFO, no register
};

StreamingInfo runStreaming(const IrProgram &prog,
                           const std::vector<int> &order, bool enabled,
                           size_t fifo_depth, StatSet &stats);

/**
 * Linear-scan register allocation over the scheduled order with the
 * SRAM partitioned into residue-polynomial registers (Sec. IV-B2),
 * followed by machine-code emission.
 */
MachineProgram runRegAllocAndCodegen(const IrProgram &prog,
                                     const std::vector<int> &order,
                                     const StreamingInfo &streaming,
                                     const CompilerOptions &opts,
                                     StatSet &stats);

class CompileCache; // compiler/compile_cache.h

/**
 * Full pipeline: optimize, schedule, allocate, emit — split at the
 * hardware boundary into an explicit **middle end** (the fixed-point
 * optimization pipeline over IR, depending only on the program and the
 * pipeline preset) and **back end** (scheduling, streaming, regalloc,
 * codegen — everything `HardwareConfig`-dependent). The split is what
 * lets a shared `CompileCache` reuse one middle-end run across every
 * hardware point of a re-compilation sweep.
 */
class Compiler
{
  public:
    explicit Compiler(CompilerOptions opts = {}) : opts_(opts) {}

    /**
     * Compiles (mutates `prog` through the optimization passes):
     * `runMiddleEnd` then `runBackEnd`. With a shared `cache` (default
     * null = uncached) the middle end goes through it: on a hit `prog`
     * is replaced by a clone of the cached optimized-IR snapshot and
     * the cached middle-end statistics are replayed, so the compile's
     * results — machine code, stats — are byte-identical to the miss
     * that built the entry. The cache is safe to share across threads.
     */
    MachineProgram compile(IrProgram &prog, CompileCache *cache = nullptr);

    /**
     * Middle end: runs the declarative optimization pipeline to its
     * bounded fixed point (asserting convergence) and compacts the
     * program. Hardware-independent by construction — no
     * `HardwareConfig`-derived option is consulted. Records
     * `input.instructions`, `pass.*`, `pipeline.*` and `optimized.*`
     * into `stats`.
     *
     * With a shared `cache` (default null = uncached) the run goes
     * through it (see `compile`): on a hit `prog` adopts a clone of the
     * cached snapshot, and either way the snapshot's statistics are
     * merged into `stats` along with the `cache.hit` marker.
     *
     * No pass reads a cached analysis, so `analyses` is unused; the
     * parameter stays until the repository benchmark, which calls this
     * signature, changes.
     */
    void runMiddleEnd(IrProgram &prog, AnalysisManager &analyses,
                      StatSet &stats, CompileCache *cache = nullptr) const;

    /**
     * Back end: global scheduling, streaming decisions, SRAM regalloc
     * and machine-code emission over the (already optimized) program.
     * This is the `HardwareConfig`-dependent half (`sramBytes`,
     * `issueWindow`, `fifoDepth`, `streaming` and the two policies).
     */
    MachineProgram runBackEnd(const IrProgram &prog,
                              AnalysisManager &analyses,
                              StatSet &stats) const;

    const StatSet &stats() const { return stats_; }
    const CompilerOptions &options() const { return opts_; }

  private:
    /** The uncached pipeline body of `runMiddleEnd`. */
    void optimize(IrProgram &prog, StatSet &stats) const;

    CompilerOptions opts_;
    StatSet stats_;
};

} // namespace effact

#endif // EFFACT_COMPILER_PASS_H
