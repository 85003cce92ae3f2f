#include "compiler/pass.h"

#include <chrono>

#include "common/logging.h"
#include "compiler/compile_cache.h"
#include "compiler/pass_manager.h"
#include "verify/verify.h"

namespace effact {

namespace {

using Clock = std::chrono::steady_clock;

/** Runs `phase()` and adds its wall time in milliseconds to `key`. */
template <typename PhaseFn>
auto
timed(const char *key, StatSet &stats, PhaseFn &&phase)
{
    const Clock::time_point t0 = Clock::now();
    auto result = phase();
    const std::chrono::duration<double, std::milli> ms =
        Clock::now() - t0;
    stats.add(key, ms.count());
    return result;
}

/** Runs `verify()` timed, accumulates the checkpoint stats, and panics
 *  via `enforceVerified` when the report is dirty. Returns the wall time
 *  in milliseconds. */
template <typename VerifyFn>
double
checkpoint(VerifyFn &&verify, const char *context, StatSet &stats)
{
    const Clock::time_point t0 = Clock::now();
    const VerifyReport rep = verify();
    const std::chrono::duration<double, std::milli> ms =
        Clock::now() - t0;
    stats.add("verify.checks", double(rep.checksRun));
    stats.add("verify.ms", ms.count());
    enforceVerified(rep, context);
    return ms.count();
}

} // namespace

MachineProgram
Compiler::compile(IrProgram &prog)
{
    AnalysisManager analyses;
    return compile(prog, analyses);
}

MachineProgram
Compiler::compile(IrProgram &prog, AnalysisManager &analyses)
{
    return compile(prog, analyses, nullptr);
}

MachineProgram
Compiler::compile(IrProgram &prog, AnalysisManager &analyses,
                  CompileCache *cache)
{
    stats_.clear();
    runMiddleEnd(prog, analyses, stats_, cache);
    return runBackEnd(prog, analyses, stats_);
}

void
Compiler::runMiddleEnd(IrProgram &prog, AnalysisManager & /*analyses*/,
                       StatSet &stats, CompileCache *cache) const
{
    if (cache == nullptr) {
        optimize(prog, stats);
        return;
    }

    // The cache key is computed over the *input* program; the build
    // below mutates it, so key first.
    const CompileCacheKey key = middleEndCacheKey(prog, opts_);
    bool hit = false;
    std::shared_ptr<const MiddleEndSnapshot> snap = cache->getOrBuild(
        key,
        [this, &prog] {
            MiddleEndSnapshot built;
            optimize(prog, built.stats);
            built.optimized = prog; // immutable copy (fresh uid)
            return built;
        },
        &hit);
    if (hit) {
        // Skip the whole optimization pipeline: adopt a clone of the
        // cached optimized IR. The clone's fresh uid keeps per-worker
        // analysis caches sound.
        prog = snap->optimized;
    }
    // Replaying the snapshot's stats (also on the miss path, where they
    // are exactly what optimize just recorded) keeps hit and miss
    // compiles byte-identical except for the cache.hit marker.
    stats.merge(snap->stats);
    stats.set("cache.hit", hit ? 1 : 0);
}

void
Compiler::optimize(IrProgram &prog, StatSet &stats) const
{
    const size_t before = prog.liveCount();
    stats.set("input.instructions", double(before));

    // Checkpoint the *input* too: a malformed builder/frontend program
    // should be reported against the frontend, not the first pass that
    // trips over it.
    if (opts_.verifyLevel > 0)
        checkpoint([&] { return verifyIr(prog); }, "middle-end input",
                   stats);

    // SSA optimizations: a declarative pipeline run to a bounded fixed
    // point. The repeat subsumes the old special-cased "copy-prop again
    // after the Eq. 5 peephole" cleanup and catches any second-order
    // reductions one sweep misses.
    PassManager pipeline = PassManager::fromSpec(opts_.pipeline);
    pipeline.setMaxIterations(opts_.pipelineMaxIterations);
    pipeline.setVerifyLevel(opts_.verifyLevel);
    pipeline.run(prog, stats);
    EFFACT_ASSERT(pipeline.converged(),
                  "optimization pipeline '%s' did not converge in %zu "
                  "sweeps",
                  pipeline.spec().c_str(), pipeline.maxIterations());
    prog.compact();

    // The program leaving here is what a `CompileCache` snapshots and
    // replays into every later hit, so verify it one last time after
    // compaction (which renumbers every operand).
    if (opts_.verifyLevel > 0)
        checkpoint([&] { return verifyIr(prog); }, "middle-end output",
                   stats);

    const size_t after = prog.liveCount();
    stats.set("optimized.instructions", double(after));
    stats.set("optimized.reductionPct",
              before == 0 ? 0.0
                          : 100.0 * double(before - after) /
                                double(before));
}

MachineProgram
Compiler::runBackEnd(const IrProgram &prog, AnalysisManager &analyses,
                     StatSet &stats) const
{
    // Per-phase wall clock (`backend.*.ms`); the regalloc phase
    // includes machine-code emission.
    const std::vector<int> order = timed("backend.schedule.ms", stats, [&] {
        return runScheduler(prog, analyses, opts_, stats);
    });
    const StreamingInfo streaming =
        timed("backend.streaming.ms", stats, [&] {
            return runStreaming(prog, order, opts_.streaming,
                                opts_.fifoDepth, stats);
        });
    MachineProgram mp = timed("backend.regalloc.ms", stats, [&] {
        return runRegAllocAndCodegen(prog, order, streaming, opts_, stats);
    });
    stats.set("machine.instructions", double(mp.insts.size()));
    // Post-backend checkpoint: the machine program handed to the
    // scheduler-graph builder and the simulator is well-formed (register
    // bounds, FIFO producer/consumer pairing, SRAM budget).
    if (opts_.verifyLevel > 0) {
        MachVerifyBudget budget;
        budget.sramBytes = opts_.sramBytes;
        stats.add("backend.verify.ms",
                  checkpoint([&] { return verifyMachine(mp, budget); },
                             "back end", stats));
    }
    return mp;
}

} // namespace effact
