/**
 * @file
 * Pass-manager layer tests: analysis caching keyed on the IR version
 * counter, pipeline-spec parsing and round-tripping, bounded fixed-point
 * convergence, and the pinned equivalence between the fixed-point
 * pipeline and the pre-pass-manager hardcoded sweep (machine code and
 * simulated cycles bit-identical on the stock workloads for all four
 * Fig. 11 ablation presets).
 */
#include <gtest/gtest.h>

#include "compiler/pass_manager.h"
#include "ir/builder.h"
#include "ir/workloads.h"
#include "pass_switches.h"
#include "platform/platform.h"
#include "service/protocol.h"
#include "sim/machine.h"

namespace effact {
namespace {

/** Reduced-size stock workloads (paper benchmarks at small params). */
std::vector<std::pair<std::string, Workload>>
stockWorkloads()
{
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 16;
    fhe.dnum = 4;
    std::vector<std::pair<std::string, Workload>> all;
    all.emplace_back("bootstrapping",
                     buildBootstrapping(fhe, {256, 2, 2, 63, 8}));
    all.emplace_back("dblookup", buildDbLookup(fhe, 64));
    return all;
}

/** load a, load b, t=a*b, u=t+a, store u (copy chain in the middle). */
IrProgram
tinyProgram()
{
    IrProgram prog;
    prog.name = "tiny";
    prog.degree = 1 << 12;
    IrBuilder b(prog);
    int in = b.object("in", 2, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal bb = b.load(in, 1, 1);
    PolyVal t = b.mul(a, bb);
    PolyVal u = b.add(t, a);
    b.store(out, 0, u);
    return prog;
}

/**
 * The pre-pass-manager `Compiler::compile` backend sequence, verbatim:
 * one hardcoded optimization sweep with the special-cased extra
 * copy-prop after the peephole, then the same backend stages under
 * `opts`. This is the oracle the fixed-point pipeline is pinned
 * against.
 */
MachineProgram
legacyCompile(IrProgram &prog, const PassSwitches &sw,
              const CompilerOptions &opts, StatSet &stats)
{
    if (sw.copyProp)
        runCopyProp(prog, stats);
    if (sw.constProp)
        runConstProp(prog, stats);
    if (sw.pre)
        runPre(prog, stats);
    if (sw.peephole) {
        runPeephole(prog, stats);
        runCopyProp(prog, stats);
    }
    prog.compact();
    stats.set("optimized.instructions", double(prog.liveCount()));

    AnalysisManager analyses;
    auto order = runScheduler(prog, analyses, opts, stats);
    auto streaming = runStreaming(prog, order, opts.streaming,
                                  opts.fifoDepth, stats);
    return runRegAllocAndCodegen(prog, order, streaming, opts, stats);
}

// --- AnalysisManager caching ----------------------------------------------

TEST(AnalysisManager, SecondRequestAtSameVersionIsACacheHit)
{
    IrProgram prog = tinyProgram();
    AnalysisManager analyses;
    StatSet stats;
    const DepGraph &g1 = analyses.depGraph(prog, stats);
    const DepGraph &g2 = analyses.depGraph(prog, stats);
    EXPECT_EQ(&g1, &g2);
    EXPECT_EQ(stats.get("analysis.depgraphBuilds"), 1);
    EXPECT_EQ(stats.get("analysis.aliasBuilds"), 1);
    EXPECT_GE(stats.get("analysis.cacheHits"), 1);
}

TEST(AnalysisManager, NoChangePassesKeepTheCache)
{
    // A pipeline whose passes find nothing to do must not invalidate
    // cached analyses: the DepGraph is built exactly once.
    IrProgram prog = tinyProgram();
    AnalysisManager analyses;
    StatSet stats;
    analyses.depGraph(prog, stats);

    // tinyProgram has no Copies and no immediates: nothing fires.
    PassManager pm = PassManager::fromSpec("copyprop,constprop");
    size_t sweeps = pm.run(prog, stats);
    EXPECT_EQ(sweeps, 1u);
    EXPECT_TRUE(pm.converged());

    analyses.depGraph(prog, stats);
    EXPECT_EQ(stats.get("analysis.depgraphBuilds"), 1);
}

TEST(AnalysisManager, IrMutationInvalidates)
{
    IrProgram prog = tinyProgram();
    AnalysisManager analyses;
    StatSet stats;
    analyses.depGraph(prog, stats);

    // Append an instruction: version bumps, next request rebuilds.
    IrBuilder b(prog);
    b.emit1(IrOp::Copy, 0, -1, 0);
    analyses.depGraph(prog, stats);
    EXPECT_EQ(stats.get("analysis.depgraphBuilds"), 2);

    // A pass that fires (removes the Copy) also invalidates.
    PassManager pm = PassManager::fromSpec("copyprop");
    pm.run(prog, stats);
    analyses.depGraph(prog, stats);
    EXPECT_EQ(stats.get("analysis.depgraphBuilds"), 3);
}

TEST(AnalysisManager, DistinctProgramsDoNotShareCache)
{
    // Two independently built programs can have colliding version
    // counters; the cache keys on program identity as well, so one
    // manager serving a re-compilation sweep never hands program B a
    // graph built from program A.
    IrProgram a = tinyProgram();
    IrProgram b = tinyProgram();
    ASSERT_EQ(a.version(), b.version());
    EXPECT_NE(a.uid(), b.uid());
    AnalysisManager analyses;
    StatSet stats;
    analyses.depGraph(a, stats);
    analyses.depGraph(b, stats);
    EXPECT_EQ(stats.get("analysis.depgraphBuilds"), 2);

    // Copies are distinct programs too: a copy that later diverges at
    // an equal version count must never hit the original's cache.
    IrProgram c = a;
    EXPECT_NE(c.uid(), a.uid());
    analyses.depGraph(c, stats);
    EXPECT_EQ(stats.get("analysis.depgraphBuilds"), 3);
}

TEST(AnalysisManager, NoOpCompactKeepsTheCache)
{
    IrProgram prog = tinyProgram();
    AnalysisManager analyses;
    StatSet stats;
    analyses.depGraph(prog, stats);
    prog.compact(); // nothing dead: ids unchanged
    analyses.depGraph(prog, stats);
    EXPECT_EQ(stats.get("analysis.depgraphBuilds"), 1);
}

// --- Pipeline specs -------------------------------------------------------

TEST(PipelineSpec, ParsesAndRoundTrips)
{
    PassManager pm = PassManager::fromSpec(" copyprop, constprop ,pre,peephole ");
    EXPECT_EQ(pm.passCount(), 4u);
    EXPECT_EQ(pm.spec(), "copyprop,constprop,pre,peephole");

    PassManager empty = PassManager::fromSpec("");
    EXPECT_EQ(empty.passCount(), 0u);
    EXPECT_EQ(empty.spec(), "");
}

TEST(PipelineSpec, RejectsUnknownAndEmptyNames)
{
    std::vector<std::string> names;
    std::string error;
    EXPECT_FALSE(parsePipelineSpec("copyprop,typo,pre", &names, &error));
    EXPECT_NE(error.find("unknown pass 'typo'"), std::string::npos);

    EXPECT_FALSE(parsePipelineSpec("copyprop,,pre", &names, &error));
    EXPECT_NE(error.find("empty pass name"), std::string::npos);

    EXPECT_FALSE(parsePipelineSpec("copyprop,", &names, &error));
    EXPECT_NE(error.find("empty pass name"), std::string::npos);

    EXPECT_TRUE(parsePipelineSpec("  ", &names, &error));
    EXPECT_TRUE(names.empty());
}

TEST(PipelineSpec, PresetsAreDeclarative)
{
    const size_t mb = size_t(8) << 20;
    EXPECT_EQ(Platform::baselineOptions(mb).pipeline, "");
    EXPECT_EQ(Platform::madEnhancedOptions(mb).pipeline,
              "copyprop,constprop,pre");
    EXPECT_EQ(Platform::streamingOptions(mb).pipeline,
              "copyprop,constprop,pre");
    EXPECT_EQ(Platform::fullOptions(mb).pipeline,
              "copyprop,constprop,pre,peephole");
    // The default options are the full preset's pipeline.
    EXPECT_EQ(CompilerOptions{}.pipeline, Platform::fullOptions(mb).pipeline);

    // The optimized preset adds rotalg and selects the new back-end
    // policies; the four stock presets above keep the legacy policies,
    // with global scheduling off in the two MAD-style ones.
    const CompilerOptions optimized = Platform::optimizedOptions(mb);
    EXPECT_EQ(optimized.pipeline, "copyprop,constprop,rotalg,pre,peephole");
    EXPECT_EQ(optimized.regalloc, RegAllocPolicy::Priority);
    EXPECT_EQ(optimized.scheduler, Scheduler::Latency);
    for (auto &opts :
         {Platform::baselineOptions(mb), Platform::madEnhancedOptions(mb)})
        EXPECT_EQ(opts.scheduler, Scheduler::ProgramOrder);
    for (auto &opts :
         {Platform::streamingOptions(mb), Platform::fullOptions(mb)})
        EXPECT_EQ(opts.scheduler, Scheduler::CriticalPath);
    for (auto &opts :
         {Platform::baselineOptions(mb), Platform::madEnhancedOptions(mb),
          Platform::streamingOptions(mb), Platform::fullOptions(mb)})
        EXPECT_EQ(opts.regalloc, RegAllocPolicy::Linear);
}

// --- Fixed point ----------------------------------------------------------

TEST(FixedPoint, SecondSweepCleansPeepholeCopies)
{
    // Eq. 5 fold rewrites Mul(imm) of an Intt into a Copy; the next
    // sweep's copy-prop removes it. That cleanup used to be a
    // special-cased second runCopyProp in Compiler::compile.
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 1, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal t = b.intt(a);
    PolyVal scaled = b.mulImm(t, 9); // the 1/N post-scale
    b.store(out, 0, scaled);

    StatSet stats;
    PassManager pm = PassManager::fromSpec("copyprop,constprop,pre,peephole");
    size_t sweeps = pm.run(prog, stats);
    EXPECT_TRUE(pm.converged());
    EXPECT_GE(sweeps, 2u);
    EXPECT_EQ(stats.get("peephole.inttScaleFolded"), 1);
    EXPECT_EQ(stats.get("copyProp.removed"), 1);
    EXPECT_EQ(stats.get("pipeline.converged"), 1);

    // No Copy (and no scale multiply) survives.
    prog.compact();
    for (const auto &inst : prog.insts)
        EXPECT_NE(inst.op, IrOp::Copy);
}

TEST(FixedPoint, DeepFoldChainsConvergeOneLinkPerSweep)
{
    // A stack of single-use scale multiplies over one Intt folds one
    // link per sweep (the Eq. 5 rewrite sees the Intt only after
    // copy-prop removes the previous sweep's Copy). Distinct moduli
    // keep constprop's chained-imm merge out of the way, so this needs
    // more sweeps than the stock workloads ever do — the bound must
    // accommodate it instead of panicking on a legal program.
    constexpr int kChain = 12;
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 1, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal t = b.intt(a);
    int v = t.limbs[0];
    for (int i = 0; i < kChain; ++i)
        v = b.emit1(IrOp::Mul, v, -1, /*modulus=*/uint32_t(i),
                    IrTag::Normal, /*imm=*/3, /*use_imm=*/true);
    b.store(out, 0, PolyVal{{v}});

    Compiler compiler; // default options: full pipeline
    compiler.compile(prog);
    EXPECT_EQ(compiler.stats().get("pipeline.converged"), 1);
    EXPECT_GT(compiler.stats().get("pipeline.iterations"), 8);
    EXPECT_EQ(compiler.stats().get("peephole.inttScaleFolded"), kChain);
}

TEST(FixedPoint, ConvergesWithinSmallBoundOnStockWorkloads)
{
    for (auto &[name, w] : stockWorkloads()) {
        Compiler compiler(Platform::fullOptions(size_t(8) << 20));
        compiler.compile(w.program);
        const StatSet &stats = compiler.stats();
        EXPECT_EQ(stats.get("pipeline.converged"), 1) << name;
        EXPECT_LE(stats.get("pipeline.iterations"), 4) << name;
        EXPECT_GE(stats.get("pipeline.iterations"), 2) << name;
        // Per-pass namespaced stats exist.
        EXPECT_TRUE(stats.has("pass.copyprop.ms")) << name;
        EXPECT_TRUE(stats.has("pass.peephole.removed")) << name;
    }
}

TEST(FixedPoint, DepGraphBuiltAtMostOncePerCompile)
{
    for (auto &[name, w] : stockWorkloads()) {
        Compiler compiler(Platform::fullOptions(size_t(8) << 20));
        compiler.compile(w.program);
        EXPECT_EQ(compiler.stats().get("analysis.depgraphBuilds"), 1)
            << name;
        EXPECT_EQ(compiler.stats().get("analysis.aliasBuilds"), 1) << name;
    }
    // With an empty pipeline (no pass can fire) and scheduling enabled,
    // the graph is still built exactly once.
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 16;
    fhe.dnum = 4;
    Workload w = buildBootstrapping(fhe, {256, 2, 2, 63, 8});
    CompilerOptions opts = Platform::baselineOptions(size_t(8) << 20);
    opts.scheduler = Scheduler::CriticalPath;
    Compiler compiler(opts);
    compiler.compile(w.program);
    EXPECT_EQ(compiler.stats().get("analysis.depgraphBuilds"), 1);
}

// --- Back-end phase timers ------------------------------------------------

TEST(BackEndTimers, PhaseKeysPresentAndCanonicalStatsStable)
{
    // Every back-end phase reports its wall clock under `backend.*.ms`
    // (the verifier only when it runs). The keys end in `.ms`, so the
    // canonical form drops them: two identical compiles stay byte-equal.
    for (int verify_level : {0, 1}) {
        CompilerOptions opts = Platform::fullOptions(size_t(8) << 20);
        opts.verifyLevel = verify_level;
        std::vector<uint8_t> canonical[2];
        for (std::vector<uint8_t> &bytes : canonical) {
            Workload w = buildDbLookup(FheParams{12, 6, 2}, 32);
            Compiler compiler(opts);
            compiler.compile(w.program);
            const StatSet &stats = compiler.stats();
            for (const char *key :
                 {"backend.schedule.ms", "backend.streaming.ms",
                  "backend.regalloc.ms"})
                EXPECT_TRUE(stats.has(key)) << key;
            EXPECT_EQ(stats.has("backend.verify.ms"), verify_level > 0);
            ServiceResult res;
            res.stats = stats;
            bytes = canonicalResultBytes(res);
        }
        EXPECT_EQ(canonical[0], canonical[1]) << "verify " << verify_level;
    }
}

// --- Equivalence with the pre-pass-manager backend ------------------------

TEST(Equivalence, ExplicitMiddleAndBackEndComposeToCompile)
{
    // The hardware split: running the two halves by hand must be
    // indistinguishable from `compile`, for every ablation preset, and
    // the middle end must be deterministic over structurally identical
    // inputs (the property the compile cache keys rely on).
    const size_t sram = size_t(27) << 20;
    const std::vector<CompilerOptions> presets = {
        Platform::baselineOptions(sram), Platform::madEnhancedOptions(sram),
        Platform::streamingOptions(sram), Platform::fullOptions(sram)};
    for (const CompilerOptions &opts : presets) {
        Compiler compiler(opts);

        Workload whole = buildDbLookup(FheParams{12, 6, 2}, 32);
        AnalysisManager am1;
        const MachineProgram via_compile =
            compiler.compile(whole.program, am1);

        Workload split = buildDbLookup(FheParams{12, 6, 2}, 32);
        AnalysisManager am2;
        StatSet stats;
        compiler.runMiddleEnd(split.program, am2, stats);
        const MachineProgram via_split =
            compiler.runBackEnd(split.program, am2, stats);

        EXPECT_EQ(fingerprint(via_compile), fingerprint(via_split));
        // Same optimized IR too: the middle end is a pure function of
        // (program content, preset).
        EXPECT_EQ(fingerprint(whole.program), fingerprint(split.program));
    }
}

TEST(Equivalence, FixedPointMatchesLegacySweepOnAllAblationPresets)
{
    // Machine code and simulated cycles must be bit-identical to the
    // hardcoded legacy sequence for every Fig. 11 preset on the stock
    // workloads, and the fixed point must never end with more
    // instructions than the single sweep. Each preset is its legacy
    // switches plus back-end options; the fixed-point side runs the spec
    // those switches derive, which for the four stock presets is their
    // own pipeline.
    const size_t sram = size_t(6) << 20;
    struct Preset
    {
        const char *name;
        PassSwitches switches;
        CompilerOptions opts;
    };
    PassSwitches none;
    none.copyProp = none.constProp = none.pre = none.peephole = false;
    PassSwitches no_peephole;
    no_peephole.peephole = false;
    PassSwitches peep_only = none;
    peep_only.peephole = true;
    const std::vector<Preset> presets = {
        {"baseline", none, Platform::baselineOptions(sram)},
        {"MAD-enhanced", no_peephole, Platform::madEnhancedOptions(sram)},
        {"streaming", no_peephole, Platform::streamingOptions(sram)},
        {"full", PassSwitches{}, Platform::fullOptions(sram)},
        {"peephole-no-copyprop", peep_only, Platform::fullOptions(sram)},
    };
    for (size_t i = 0; i + 1 < presets.size(); ++i)
        EXPECT_EQ(specFromSwitches(presets[i].switches),
                  presets[i].opts.pipeline)
            << presets[i].name;
    EXPECT_EQ(specFromSwitches(peep_only), "peephole,copyprop");
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.sramBytes = sram;

    for (auto &[wname, stock] : stockWorkloads()) {
        for (const Preset &preset : presets) {
            IrProgram legacy_prog = stock.program;
            StatSet legacy_stats;
            MachineProgram legacy = legacyCompile(
                legacy_prog, preset.switches, preset.opts, legacy_stats);

            CompilerOptions fp_opts = preset.opts;
            fp_opts.pipeline = specFromSwitches(preset.switches);
            IrProgram fp_prog = stock.program;
            Compiler compiler(fp_opts);
            MachineProgram fp = compiler.compile(fp_prog);

            const std::string tag =
                std::string(wname) + " / " + preset.name;
            ASSERT_EQ(fp.insts.size(), legacy.insts.size()) << tag;
            EXPECT_EQ(disassemble(fp), disassemble(legacy)) << tag;
            EXPECT_EQ(fp.numRegs, legacy.numRegs) << tag;
            EXPECT_EQ(fp.spillLoads, legacy.spillLoads) << tag;
            EXPECT_EQ(fp.spillStores, legacy.spillStores) << tag;
            EXPECT_EQ(fp.streamedOps, legacy.streamedOps) << tag;

            EXPECT_LE(compiler.stats().get("optimized.instructions"),
                      legacy_stats.get("optimized.instructions"))
                << tag;

            Simulator sim(hw);
            SimReport fp_run = sim.run(fp);
            SimReport legacy_run = sim.run(legacy);
            EXPECT_DOUBLE_EQ(fp_run.cycles, legacy_run.cycles) << tag;
            EXPECT_DOUBLE_EQ(fp_run.dramBytes, legacy_run.dramBytes)
                << tag;
        }
    }
}

TEST(Equivalence, OptimizedPresetShrinksAndStaysDeterministic)
{
    // The rotalg/priority/latency preset against the full Fig. 11
    // preset: never more optimized instructions, rotalg demonstrably
    // fires on the rotation workload, verifier-clean at every
    // checkpoint, and machine code bit-identical when recompiled against
    // a caller-owned analysis manager.
    const size_t sram = size_t(6) << 20;
    std::vector<std::pair<std::string, Workload>> cases;
    cases.emplace_back("rotbatch",
                       buildRotationBatch(FheParams{13, 8, 2}, 4, 8));
    for (auto &[name, w] : stockWorkloads())
        cases.emplace_back(name, std::move(w));

    for (auto &[name, w] : cases) {
        CompilerOptions full_opts = Platform::fullOptions(sram);
        full_opts.verifyLevel = 1;
        IrProgram full_prog = w.program;
        Compiler full_compiler(full_opts);
        full_compiler.compile(full_prog);

        CompilerOptions opt_opts = Platform::optimizedOptions(sram);
        opt_opts.verifyLevel = 1;
        IrProgram opt_prog = w.program;
        Compiler opt_compiler(opt_opts);
        const MachineProgram opt = opt_compiler.compile(opt_prog);

        EXPECT_LE(opt_compiler.stats().get("optimized.instructions"),
                  full_compiler.stats().get("optimized.instructions"))
            << name;
        EXPECT_EQ(opt_compiler.stats().get("pipeline.converged"), 1)
            << name;
        if (std::string(name) == "rotbatch") {
            EXPECT_GT(opt_compiler.stats().get("rotalg.composed"), 0)
                << name;
            EXPECT_GT(opt_compiler.stats().get("rotalg.deadRotations"), 0)
                << name;
            // The bypassed intermediates actually left the program.
            EXPECT_LT(opt_compiler.stats().get("optimized.instructions"),
                      full_compiler.stats().get("optimized.instructions"))
                << name;
        }

        IrProgram again_prog = w.program;
        Compiler again_compiler(opt_opts);
        AnalysisManager analyses;
        const MachineProgram again =
            again_compiler.compile(again_prog, analyses);
        EXPECT_EQ(fingerprint(again), fingerprint(opt)) << name;
    }
}

} // namespace
} // namespace effact
