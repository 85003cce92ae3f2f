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

#include <map>
#include <tuple>

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
                     buildBootstrapping(fhe, {256, 2, 2}));
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

// --- pass.<name>.{removed,changed,skipped} oracle ----------------------

/** What `replayPipeline` measured, keyed by pass name. */
struct PipelineReplay
{
    std::map<std::string, double> removed; ///< `liveCount()` deltas
    std::map<std::string, double> changed; ///< runs that rewrote the IR
    std::map<std::string, double> skipped; ///< runs the skip rule saved
    double sweeps = 0;
    size_t killingSweeps = 0; ///< sweeps whose live count fell
};

/**
 * `PassManager::run`'s fixed point replayed pass by pass outside the
 * library, without the manager's between-sweep compaction, and with
 * each run's removals measured the old way, as a `liveCount()` delta.
 * The sweep and skip rules are the manager's (a pass whose input
 * version is unchanged since its own last run is skipped), so the
 * per-name totals are what `pass.<name>.removed`, `.changed` and
 * `.skipped` must report, and `pipeline.iterations` must equal
 * `sweeps`. A pass that sets `dead` without `IrProgram::kill` shows up
 * here as a replay count above the manager's; a compaction that broke
 * the skip rule shows up as a changed or skipped count that differs.
 */
PipelineReplay
replayPipeline(IrProgram &prog, const std::string &spec)
{
    static const std::map<std::string, size_t (*)(IrProgram &, StatSet &)>
        kRun = {{"copyprop", &runCopyProp}, {"constprop", &runConstProp},
                {"pre", &runPre},           {"peephole", &runPeephole},
                {"rotalg", &runRotAlg}};
    for (const std::string &name : knownPassNames())
        EXPECT_EQ(kRun.count(name), 1u) << "replay lacks pass " << name;
    std::vector<std::string> names;
    EXPECT_TRUE(parsePipelineSpec(spec, &names));
    PipelineReplay replay;
    std::vector<uint64_t> last_seen(names.size(), ~uint64_t(0));
    bool sweep_changed = !names.empty();
    while (sweep_changed) {
        sweep_changed = false;
        ++replay.sweeps;
        const size_t live_at_sweep = prog.liveCount();
        for (size_t i = 0; i < names.size(); ++i) {
            if (last_seen[i] == prog.version()) {
                ++replay.skipped[names[i]];
                continue;
            }
            const size_t live_before = prog.liveCount();
            StatSet ignored;
            const bool changed = kRun.at(names[i])(prog, ignored) > 0;
            if (changed) {
                prog.bumpVersion();
                sweep_changed = true;
            }
            last_seen[i] = prog.version();
            replay.changed[names[i]] += changed ? 1 : 0;
            replay.removed[names[i]] +=
                double(live_before) - double(prog.liveCount());
        }
        if (prog.liveCount() != live_at_sweep)
            ++replay.killingSweeps;
    }
    return replay;
}

/** `pass.<name><suffix>` stats keyed by `<name>`. */
std::map<std::string, double>
passStats(const StatSet &stats, const std::string &suffix)
{
    std::map<std::string, double> out;
    for (const auto &[key, value] : stats.all()) {
        if (key.rfind("pass.", 0) != 0 || key.size() < suffix.size() ||
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) != 0)
            continue;
        out[key.substr(5, key.size() - 5 - suffix.size())] = value;
    }
    return out;
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

    // The manager compacts once per sweep that removed something: the
    // difference to the uncompacted replay's version is exactly one
    // bump per killing sweep, and both reach the same program.
    const std::string spec = CompilerOptions{}.pipeline;
    IrProgram managed = prog;
    StatSet stats;
    PassManager::fromSpec(spec).run(managed, stats);
    IrProgram replayed = prog;
    const PipelineReplay replay = replayPipeline(replayed, spec);
    EXPECT_EQ(stats.get("pipeline.iterations"), replay.sweeps);
    EXPECT_GE(replay.killingSweeps, size_t(kChain));
    EXPECT_EQ(managed.version() - replayed.version(),
              uint64_t(replay.killingSweeps));
    EXPECT_EQ(managed.insts.size(), managed.liveCount());
    EXPECT_EQ(managed.insts.capacity(), managed.insts.size());
    replayed.compact();
    EXPECT_EQ(fingerprint(managed), fingerprint(replayed));

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
    Workload w = buildBootstrapping(fhe, {256, 2, 2});
    CompilerOptions opts = Platform::baselineOptions(size_t(8) << 20);
    opts.scheduler = Scheduler::CriticalPath;
    Compiler compiler(opts);
    compiler.compile(w.program);
    EXPECT_EQ(compiler.stats().get("analysis.depgraphBuilds"), 1);
}

// --- Pass stats against the replay ----------------------------------------

/**
 * One instance of every way a pass removes an instruction: a Copy
 * (copyprop), `x * 1` and `x + 0` (constprop's two folds), an
 * intermediate rotation left without uses (rotalg), a duplicate
 * multiply and an unused subtract (PRE's value numbering and DCE), and
 * a single-use multiply feeding an add (peephole's Mac fusion). The
 * stock workloads exercise only PRE, peephole and rotalg removals.
 */
IrProgram
killSiteProgram()
{
    IrProgram prog;
    prog.name = "kill-sites";
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    const int in = b.object("in", 2, false);
    const int out = b.object("out", 3, false);
    const int x = b.load(in, 0, 1).limbs[0];
    const int y = b.load(in, 1, 1).limbs[0];
    const int copy = b.emit1(IrOp::Copy, x, -1, 0);
    const int times_one =
        b.emit1(IrOp::Mul, copy, -1, 0, IrTag::Normal, 1, true);
    const int plus_zero =
        b.emit1(IrOp::Add, times_one, -1, 0, IrTag::Normal, 0, true);
    const int xy = b.emit1(IrOp::Mul, x, y, 0);
    const int xy_again = b.emit1(IrOp::Mul, x, y, 0);
    b.emit1(IrOp::Sub, x, y, 0); // never used
    const int product = b.emit1(IrOp::Mul, xy, y, 0);
    const int sum = b.emit1(IrOp::Add, product, plus_zero, 0);
    const int hop = b.emit1(IrOp::Auto, x, -1, 0, IrTag::Normal, 5, true);
    const int rot = b.emit1(IrOp::Auto, hop, -1, 0, IrTag::Normal, 25, true);
    b.store(out, 0, PolyVal{{sum}});
    b.store(out, 1, PolyVal{{xy_again}});
    b.store(out, 2, PolyVal{{rot}});
    return prog;
}

TEST(PassRemovals, KillSiteProgramFiresEveryRemoval)
{
    IrProgram prog = killSiteProgram();
    Compiler compiler(Platform::optimizedOptions(size_t(27) << 20));
    compiler.compile(prog);
    const StatSet &stats = compiler.stats();
    EXPECT_EQ(stats.get("copyProp.removed"), 1);
    EXPECT_EQ(stats.get("constProp.identityFolded"), 2);
    EXPECT_EQ(stats.get("rotalg.deadRotations"), 1);
    EXPECT_EQ(stats.get("pre.cseRemoved"), 1);
    EXPECT_EQ(stats.get("pre.deadCodeRemoved"), 1);
    EXPECT_EQ(stats.get("peephole.macFused"), 1);
}

TEST(PassRemovals, MatchLiveCountReplayOnStockWorkloadsAllPresets)
{
    FheParams boot;
    boot.logN = 14;
    boot.levels = 16;
    boot.dnum = 4;
    const FheParams deep{13, 24, 4};
    std::vector<std::pair<std::string, Workload>> workloads;
    workloads.emplace_back("bootstrapping",
                           buildBootstrapping(boot, {256, 2, 2}));
    workloads.emplace_back("dblookup", buildDbLookup(boot, 64));
    workloads.emplace_back("helr", buildHelr(deep));
    workloads.emplace_back("resnet20", buildResNet20(deep));
    workloads.emplace_back("tfhe", buildTfheBootstrap());
    workloads.emplace_back("rotbatch",
                           buildRotationBatch(FheParams{13, 8, 2}, 4, 8));
    Workload kill_sites;
    kill_sites.program = killSiteProgram();
    workloads.emplace_back("kill-sites", std::move(kill_sites));
    const size_t sram = size_t(27) << 20;
    const std::vector<std::pair<const char *, CompilerOptions>> presets = {
        {"baseline", Platform::baselineOptions(sram)},
        {"MAD-enhanced", Platform::madEnhancedOptions(sram)},
        {"streaming", Platform::streamingOptions(sram)},
        {"full", Platform::fullOptions(sram)},
        {"optimized", Platform::optimizedOptions(sram)},
    };

    for (const auto &[wname, w] : workloads) {
        for (const auto &[pname, opts] : presets) {
            const std::string tag = wname + " / " + pname;
            IrProgram managed = w.program;
            AnalysisManager analyses;
            StatSet stats;
            Compiler(opts).runMiddleEnd(managed, analyses, stats);

            IrProgram replayed = w.program;
            const PipelineReplay expected =
                replayPipeline(replayed, opts.pipeline);
            replayed.compact();
            ASSERT_EQ(fingerprint(replayed), fingerprint(managed)) << tag;

            const std::map<std::string, double> removed =
                passStats(stats, ".removed");
            EXPECT_EQ(removed, expected.removed) << tag;
            EXPECT_EQ(passStats(stats, ".changed"), expected.changed) << tag;
            EXPECT_EQ(passStats(stats, ".skipped"), expected.skipped) << tag;
            EXPECT_EQ(stats.get("pipeline.iterations"), expected.sweeps)
                << tag;
            double removed_sum = 0;
            for (const auto &[name, value] : removed)
                removed_sum += value;
            EXPECT_EQ(removed_sum, stats.get("input.instructions") -
                                       stats.get("optimized.instructions"))
                << tag;
        }
    }
}

TEST(PassRemovals, ManagerCompactsAfterEveryKillingSweep)
{
    // The manager compacts between sweeps, so its output holds exactly
    // the live instructions and `Compiler::optimize`'s final
    // `compact()` has nothing left to do (a no-op compaction keeps the
    // version). Both programs here lose instructions in their first
    // sweep and converge in a later one.
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 16;
    fhe.dnum = 4;
    const size_t sram = size_t(27) << 20;
    const std::vector<std::tuple<std::string, IrProgram, CompilerOptions>>
        cases = {
            {"kill-sites", killSiteProgram(),
             Platform::optimizedOptions(sram)},
            {"bootstrapping",
             buildBootstrapping(fhe, {256, 2, 2}).program,
             Platform::fullOptions(sram)},
        };
    for (const auto &[name, input, opts] : cases) {
        IrProgram managed = input;
        StatSet stats;
        PassManager pm = PassManager::fromSpec(opts.pipeline);
        pm.run(managed, stats);
        ASSERT_TRUE(pm.converged()) << name;
        EXPECT_GT(stats.get("pipeline.iterations"), 1) << name;
        EXPECT_LT(managed.insts.size(), input.insts.size()) << name;
        EXPECT_EQ(managed.insts.size(), managed.liveCount()) << name;
        EXPECT_EQ(managed.insts.capacity(), managed.insts.size()) << name;

        IrProgram optimized = input;
        AnalysisManager analyses;
        StatSet ignored;
        Compiler(opts).runMiddleEnd(optimized, analyses, ignored);
        EXPECT_EQ(optimized.version(), managed.version())
            << name << ": the final compact() renumbered again";
        EXPECT_EQ(fingerprint(optimized), fingerprint(managed)) << name;

        IrProgram replayed = input;
        replayPipeline(replayed, opts.pipeline);
        replayed.compact();
        EXPECT_EQ(fingerprint(replayed), fingerprint(managed)) << name;
    }
}

TEST(PassRemovals, KillCountsOnlyLiveToDeadTransitions)
{
    IrProgram prog = tinyProgram();
    EXPECT_EQ(prog.kills(), 0u);
    prog.kill(prog.insts[2]);
    EXPECT_TRUE(prog.insts[2].dead);
    EXPECT_EQ(prog.kills(), 1u);
    prog.kill(prog.insts[2]);
    EXPECT_EQ(prog.kills(), 1u) << "an already-dead instruction counted";
    prog.insts[3].dead = true; // behind the counter's back
    prog.kill(prog.insts[3]);
    EXPECT_EQ(prog.kills(), 1u);
    EXPECT_EQ(prog.liveCount(), prog.insts.size() - 2);
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
        const MachineProgram via_compile =
            compiler.compile(whole.program);

        Workload split = buildDbLookup(FheParams{12, 6, 2}, 32);
        AnalysisManager analyses;
        StatSet stats;
        compiler.runMiddleEnd(split.program, analyses, stats);
        const MachineProgram via_split =
            compiler.runBackEnd(split.program, analyses, stats);

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
        const MachineProgram again = again_compiler.compile(again_prog);
        EXPECT_EQ(fingerprint(again), fingerprint(opt)) << name;
    }
}

} // namespace
} // namespace effact
