/**
 * @file
 * Compiler backend tests: each pass on hand-built programs, then the
 * whole pipeline on paper-scale workloads (invariants: no lost stores,
 * spills appear exactly when SRAM is short, streaming only with single
 * consumers).
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/pass.h"
#include "compiler/pass_manager.h"
#include "ir/builder.h"
#include "ir/workloads.h"
#include "reference_pre.h"

namespace effact {
namespace {

/** Builds a tiny program: load a, load b, t=a*b, u=t+a, store u. */
IrProgram
tinyProgram()
{
    IrProgram prog;
    prog.name = "tiny";
    prog.degree = 1 << 12;
    prog.lanes = 64;
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

TEST(CopyProp, RemovesCopyChains)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 1, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    int c1 = b.emit1(IrOp::Copy, a.limbs[0], -1, 0);
    int c2 = b.emit1(IrOp::Copy, c1, -1, 0);
    int sum = b.emit1(IrOp::Add, c2, a.limbs[0], 0);
    b.store(out, 0, PolyVal{{sum}});

    StatSet stats;
    runCopyProp(prog, stats);
    EXPECT_EQ(stats.get("copyProp.removed"), 2);
    // The Add now reads the load directly.
    EXPECT_EQ(prog.insts[sum].a, a.limbs[0]);
}

TEST(ConstProp, FoldsIdentities)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 1, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal x1 = b.mulImm(a, 1); // x*1
    PolyVal x2 = b.addImm(x1, 0); // +0
    b.store(out, 0, x2);

    StatSet stats;
    runConstProp(prog, stats);
    EXPECT_EQ(stats.get("constProp.identityFolded"), 2);
}

TEST(ConstProp, ChainsImmediateMultiplies)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 1, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal x = b.mulImm(b.mulImm(a, 3), 5);
    b.store(out, 0, x);

    StatSet stats;
    runConstProp(prog, stats);
    EXPECT_EQ(stats.get("constProp.immChained"), 1);
    // The outer multiply now reads the load with imm 15.
    EXPECT_EQ(prog.insts[x.limbs[0]].imm, 15u);
    EXPECT_EQ(prog.insts[x.limbs[0]].a, a.limbs[0]);
}

TEST(Pre, RemovesRedundantComputation)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 2, false);
    int out = b.object("out", 2, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal c = b.load(in, 1, 1);
    PolyVal m1 = b.mul(a, c);
    PolyVal m2 = b.mul(a, c); // redundant
    b.store(out, 0, m1);
    b.store(out, 1, m2);

    StatSet stats;
    runPre(prog, stats);
    EXPECT_EQ(stats.get("pre.cseRemoved"), 1);
}

TEST(Pre, DeduplicatesReadOnlyLoads)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int key = b.object("key", 1, true);
    int in = b.object("in", 1, false);
    int out = b.object("out", 2, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal k1 = b.load(key, 0, 1);
    PolyVal k2 = b.load(key, 0, 1); // same key residue again
    b.store(out, 0, b.mul(a, k1));
    b.store(out, 1, b.mul(a, k2));

    StatSet stats;
    runPre(prog, stats);
    EXPECT_EQ(stats.get("pre.readOnlyReloadsRemoved"), 1);
    // The two multiplies become one after VN (same operands).
    EXPECT_EQ(stats.get("pre.cseRemoved"), 1);
}

TEST(Pre, DoesNotMergeMutableLoads)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int buf = b.object("buf", 1, false);
    int out = b.object("out", 2, false);
    PolyVal l1 = b.load(buf, 0, 1);
    b.store(buf, 0, b.mulImm(l1, 3));
    PolyVal l2 = b.load(buf, 0, 1); // must NOT merge with l1
    b.store(out, 0, l2);

    StatSet stats;
    runPre(prog, stats);
    EXPECT_EQ(stats.get("pre.readOnlyReloadsRemoved"), 0);
}

// --- PRE: directed collisions against the flat value-numbering table --------

struct PreCounts
{
    double cse = 0;
    double reload = 0;
};

/**
 * Runs PRE on a program of three mutable loads x, y, z followed by the
 * two instructions `emit` appends (both stored, so DCE keeps them), and
 * returns the VN counts. Mutable loads never take part in value
 * numbering, so the pair alone decides the counts. The result must also
 * match the reference scan exactly.
 */
template <typename EmitFn>
PreCounts
preOnPair(EmitFn &&emit)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    const int in = b.object("in", 3, false);
    const int out = b.object("out", 2, false);
    const int x = b.load(in, 0, 1).limbs[0];
    const int y = b.load(in, 1, 1).limbs[0];
    const int z = b.load(in, 2, 1).limbs[0];
    const auto [first, second] = emit(b, x, y, z);
    b.store(out, 0, PolyVal{{first}});
    b.store(out, 1, PolyVal{{second}});

    IrProgram expected = prog;
    StatSet expected_stats;
    referencePre(expected, expected_stats);
    StatSet stats;
    runPre(prog, stats);
    EXPECT_EQ(fingerprint(prog), fingerprint(expected));
    EXPECT_EQ(stats.toString(), expected_stats.toString());
    return {stats.get("pre.cseRemoved"),
            stats.get("pre.readOnlyReloadsRemoved")};
}

/** A Mac `a * b + c`, as the peephole emits it. */
int
emitMac(IrBuilder &b, int a, int bv, int c)
{
    IrInst inst;
    inst.op = IrOp::Mac;
    inst.a = a;
    inst.b = bv;
    inst.c = c;
    return b.program().emit(inst);
}

TEST(Pre, CommutativeSwapMerges)
{
    for (IrOp op : {IrOp::Add, IrOp::Mul}) {
        const PreCounts got = preOnPair([op](IrBuilder &b, int x, int y,
                                             int) {
            return std::pair{b.emit1(op, x, y, 0), b.emit1(op, y, x, 0)};
        });
        EXPECT_EQ(got.cse, 1) << irOpName(op);
        EXPECT_EQ(got.reload, 0) << irOpName(op);
    }
}

TEST(Pre, SubWithSwappedOperandsDoesNotMerge)
{
    PreCounts got = preOnPair([](IrBuilder &b, int x, int y, int) {
        return std::pair{b.emit1(IrOp::Sub, x, y, 0),
                         b.emit1(IrOp::Sub, y, x, 0)};
    });
    EXPECT_EQ(got.cse, 0);
    got = preOnPair([](IrBuilder &b, int x, int y, int) {
        return std::pair{b.emit1(IrOp::Sub, x, y, 0),
                         b.emit1(IrOp::Sub, x, y, 0)};
    });
    EXPECT_EQ(got.cse, 1);
}

TEST(Pre, ImmediateEqualToOperandIdDoesNotMerge)
{
    // `x * y` and `x * imm` with imm == y's value id: the keys differ
    // only in `useImm` (and where the number sits), never in the value.
    PreCounts got = preOnPair([](IrBuilder &b, int x, int y, int) {
        return std::pair{
            b.emit1(IrOp::Mul, x, y, 0),
            b.emit1(IrOp::Mul, x, -1, 0, IrTag::Normal, u64(y), true)};
    });
    EXPECT_EQ(got.cse, 0);
    // Immediate forms are never commuted: `y * imm(x)` vs `x * imm(y)`.
    got = preOnPair([](IrBuilder &b, int x, int y, int) {
        return std::pair{
            b.emit1(IrOp::Add, x, -1, 0, IrTag::Normal, u64(y), true),
            b.emit1(IrOp::Add, y, -1, 0, IrTag::Normal, u64(x), true)};
    });
    EXPECT_EQ(got.cse, 0);
    got = preOnPair([](IrBuilder &b, int x, int y, int) {
        return std::pair{
            b.emit1(IrOp::Mul, x, -1, 0, IrTag::Normal, u64(y), true),
            b.emit1(IrOp::Mul, x, -1, 0, IrTag::Normal, u64(y), true)};
    });
    EXPECT_EQ(got.cse, 1);
}

TEST(Pre, MacAccumulatorIsPartOfTheKey)
{
    PreCounts got = preOnPair([](IrBuilder &b, int x, int y, int z) {
        return std::pair{emitMac(b, x, y, z), emitMac(b, x, y, x)};
    });
    EXPECT_EQ(got.cse, 0);
    got = preOnPair([](IrBuilder &b, int x, int y, int z) {
        return std::pair{emitMac(b, x, y, z), emitMac(b, x, y, z)};
    });
    EXPECT_EQ(got.cse, 1);
}

TEST(Pre, GaloisElementIsPartOfTheKey)
{
    auto rotate = [](IrBuilder &b, int v, u64 elt) {
        return b.emit1(IrOp::Auto, v, -1, 0, IrTag::Normal, elt, true);
    };
    PreCounts got = preOnPair([&](IrBuilder &b, int x, int, int) {
        return std::pair{rotate(b, x, 3), rotate(b, x, 5)};
    });
    EXPECT_EQ(got.cse, 0);
    got = preOnPair([&](IrBuilder &b, int x, int, int) {
        return std::pair{rotate(b, x, 5), rotate(b, x, 5)};
    });
    EXPECT_EQ(got.cse, 1);
}

TEST(Pre, ModulusIsPartOfTheKey)
{
    PreCounts got = preOnPair([](IrBuilder &b, int x, int y, int) {
        return std::pair{b.emit1(IrOp::Mul, x, y, 0),
                         b.emit1(IrOp::Mul, x, y, 1)};
    });
    EXPECT_EQ(got.cse, 0);
    got = preOnPair([](IrBuilder &b, int x, int, int) {
        return std::pair{b.emit1(IrOp::Ntt, x, -1, 2),
                         b.emit1(IrOp::Ntt, x, -1, 3)};
    });
    EXPECT_EQ(got.cse, 0);
}

TEST(Pre, ReadOnlyLoadsKeyOnObjectAndIndex)
{
    PreCounts got = preOnPair([](IrBuilder &b, int, int, int) {
        const int key = b.object("key", 2, true);
        return std::pair{b.load(key, 0, 1).limbs[0],
                         b.load(key, 1, 1).limbs[0]};
    });
    EXPECT_EQ(got.reload, 0);
    got = preOnPair([](IrBuilder &b, int, int, int) {
        const int key = b.object("key", 2, true);
        const int other = b.object("other", 2, true);
        return std::pair{b.load(key, 1, 1).limbs[0],
                         b.load(other, 1, 1).limbs[0]};
    });
    EXPECT_EQ(got.reload, 0);
    got = preOnPair([](IrBuilder &b, int, int, int) {
        const int key = b.object("key", 2, true);
        return std::pair{b.load(key, 1, 1).limbs[0],
                         b.load(key, 1, 1).limbs[0]};
    });
    EXPECT_EQ(got.reload, 1);
    EXPECT_EQ(got.cse, 0);
}

TEST(Pre, CrowdedTableKeepsExactCounts)
{
    // Every instruction is pure, so the table runs at its maximum load
    // factor of 1/2: long linear-probe chains, and chains that run off
    // the end of the slot array and wrap to slot 0 (with the current key
    // hash: probes of up to 18 slots, and 18 of the programs wrap; a
    // probe that stops at the wrap fails this test). Each size is a
    // power of two, so the table has exactly twice as many slots as
    // instructions. The tail repeats the first `dups` loads and the
    // first `dups` immediate adds; `variant` shifts the immediates to
    // move every add key.
    for (int n : {16, 64, 256, 1024, 4096}) {
        const u64 variants = u64(std::max(8, 4096 / n));
        for (u64 variant = 0; variant < variants; ++variant) {
            const int dups = n / 16;
            const int distinct = (n - 2 * dups) / 2;
            IrProgram prog;
            prog.degree = 1 << 10;
            IrBuilder b(prog);
            const int key = b.object("key", distinct, true);
            std::vector<int> loads;
            for (int j = 0; j < distinct; ++j)
                loads.push_back(b.load(key, j, 1).limbs[0]);
            const u64 imm0 = 1 + variant * u64(n);
            auto addImm = [&](int j) {
                b.emit1(IrOp::Add, loads[0], -1, 0, IrTag::Normal,
                        imm0 + u64(j), true);
            };
            for (int j = 0; j < n - 2 * dups - distinct; ++j)
                addImm(j);
            for (int j = 0; j < dups; ++j) {
                b.load(key, j, 1);
                addImm(j);
            }
            ASSERT_EQ(prog.insts.size(), size_t(n));

            const std::string tag = std::to_string(n) + "/" +
                                    std::to_string(variant);
            IrProgram expected = prog;
            StatSet expected_stats;
            referencePre(expected, expected_stats);
            StatSet stats;
            runPre(prog, stats);
            EXPECT_EQ(stats.get("pre.readOnlyReloadsRemoved"), dups) << tag;
            EXPECT_EQ(stats.get("pre.cseRemoved"), dups) << tag;
            // Nothing is stored, so everything that survived VN is dead.
            EXPECT_EQ(stats.get("pre.deadCodeRemoved"), n - 2 * dups)
                << tag;
            EXPECT_EQ(fingerprint(prog), fingerprint(expected)) << tag;
        }
    }
}

TEST(Pre, MatchesReferenceOnStockWorkloads)
{
    // Reduced-size stock workloads through both PRE-bearing pipeline
    // shapes, compared at every PRE step of the fixed point.
    FheParams boot;
    boot.logN = 14;
    boot.levels = 16;
    boot.dnum = 4;
    const FheParams deep{13, 24, 4};
    std::vector<std::pair<std::string, Workload>> workloads;
    workloads.emplace_back("bootstrapping",
                           buildBootstrapping(boot, {256, 2, 2, 63, 8}));
    workloads.emplace_back("dblookup", buildDbLookup(boot, 64));
    workloads.emplace_back("helr", buildHelr(deep));
    workloads.emplace_back("resnet20", buildResNet20(deep));
    for (const auto &[name, w] : workloads)
        for (const char *spec : {"copyprop,constprop,pre,peephole",
                                 "copyprop,constprop,rotalg,pre,peephole"})
            EXPECT_GE(expectPreMatchesReference(w.program, spec,
                                                name + " / " + spec),
                      2u);
}

TEST(Peephole, FusesMulAddIntoMac)
{
    IrProgram prog = tinyProgram();
    StatSet stats;
    runPeephole(prog, stats);
    EXPECT_EQ(stats.get("peephole.macFused"), 1);
    // Find the Mac and check its three operands.
    bool found = false;
    for (const auto &inst : prog.insts) {
        if (!inst.dead && inst.op == IrOp::Mac) {
            found = true;
            EXPECT_GE(inst.c, 0);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Alias, OrdersSameLocationAccesses)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int buf = b.object("buf", 1, false);
    PolyVal l1 = b.load(buf, 0, 1);
    b.store(buf, 0, b.mulImm(l1, 3));
    PolyVal l2 = b.load(buf, 0, 1);
    b.store(buf, 0, b.mulImm(l2, 5));

    StatSet stats;
    auto edges = runAliasAnalysis(prog, stats);
    // WAR (load->store) x2, RAW (store->load), WAW (store->store).
    EXPECT_GE(edges.size(), 4u);
}

TEST(Scheduler, RespectsDependences)
{
    IrProgram prog = tinyProgram();
    StatSet stats;
    AnalysisManager analyses;
    auto order = runScheduler(prog, analyses, CompilerOptions{}, stats);
    ASSERT_EQ(order.size(), prog.liveCount());
    std::vector<int> pos(prog.insts.size(), -1);
    for (size_t k = 0; k < order.size(); ++k)
        pos[order[k]] = static_cast<int>(k);
    for (size_t i = 0; i < prog.insts.size(); ++i) {
        const IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int operand : {inst.a, inst.b, inst.c})
            if (operand >= 0) {
                EXPECT_LT(pos[operand], pos[i]);
            }
    }
}

TEST(Streaming, SingleConsumerLoadsStream)
{
    IrProgram prog = tinyProgram(); // load b has a single use
    StatSet stats;
    AnalysisManager analyses;
    auto order = runScheduler(prog, analyses, CompilerOptions{}, stats);
    auto info = runStreaming(prog, order, true, 96, stats);
    EXPECT_GE(stats.get("stream.loads"), 1);
    // Load of `a` has two consumers -> must not stream.
    EXPECT_EQ(info.streamedLoad[0] + info.streamedLoad[1], 1);
}

TEST(Streaming, DisabledMeansNothingStreams)
{
    IrProgram prog = tinyProgram();
    StatSet stats;
    AnalysisManager analyses;
    auto order = runScheduler(prog, analyses, CompilerOptions{}, stats);
    auto info = runStreaming(prog, order, false, 96, stats);
    for (auto v : info.streamedLoad)
        EXPECT_EQ(v, 0);
}

TEST(Compiler, EndToEndTinyProgram)
{
    IrProgram prog = tinyProgram();
    Compiler compiler;
    MachineProgram mp = compiler.compile(prog);
    EXPECT_GT(mp.insts.size(), 0u);
    // Exactly one STORE_RES reaches the output object.
    size_t stores = 0;
    for (const auto &mi : mp.insts)
        stores += mi.op == Opcode::STORE_RES ? 1 : 0;
    EXPECT_EQ(stores, 1u);
}

TEST(Compiler, SmallSramForcesSpills)
{
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 16;
    fhe.dnum = 4;
    Workload w = buildBootstrapping(fhe, {256, 2, 2, 63, 8});

    CompilerOptions tight;
    tight.sramBytes = size_t(2) << 20; // 2 MB: ~16 registers
    Compiler c1(tight);
    IrProgram p1 = w.program;
    MachineProgram m1 = c1.compile(p1);

    CompilerOptions roomy;
    roomy.sramBytes = size_t(512) << 20;
    Compiler c2(roomy);
    IrProgram p2 = w.program;
    MachineProgram m2 = c2.compile(p2);

    EXPECT_GT(m1.spillLoads, m2.spillLoads);
    EXPECT_EQ(m2.spillLoads, 0u);
}

TEST(RegAlloc, SpilledValuesCountedOnce)
{
    // Ten computed values, all live until they are stored in order, on
    // an 8-register SRAM: 7 registers are allocatable next to the one
    // scratch register, and the load feeding the next value holds one
    // of them, so 6 values stay resident and exactly 4 spill under
    // either policy, each stored once and reloaded once. A
    // one-instruction issue window keeps reload pressure at one reload
    // per instruction, so the scratch pool stays at one register and
    // the allocation runs once.
    IrProgram prog;
    prog.degree = 1 << 12;
    prog.lanes = 64;
    IrBuilder b(prog);
    const int in = b.object("in", 10, false);
    const int out = b.object("out", 10, false);
    std::vector<PolyVal> values;
    for (int i = 0; i < 10; ++i)
        values.push_back(b.addImm(b.load(in, i, 1), 1));
    for (int i = 0; i < 10; ++i)
        b.store(out, i, values[size_t(i)]);

    std::vector<int> order(prog.insts.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = int(i);
    for (RegAllocPolicy policy :
         {RegAllocPolicy::Linear, RegAllocPolicy::Priority}) {
        CompilerOptions opts;
        opts.regalloc = policy;
        opts.sramBytes = 8 * prog.degree * 8;
        opts.issueWindow = 1;
        StatSet stats;
        const StreamingInfo streaming =
            runStreaming(prog, order, false, opts.fifoDepth, stats);
        const MachineProgram mp =
            runRegAllocAndCodegen(prog, order, streaming, opts, stats);
        EXPECT_EQ(stats.get("regalloc.registers"), 8.0);
        EXPECT_EQ(stats.get("regalloc.scratchRegs"), 1.0);
        EXPECT_EQ(stats.get("regalloc.spilledValues"), 4.0);
        EXPECT_EQ(mp.spillStores, 4u);
        EXPECT_EQ(mp.spillLoads, 4u);
        EXPECT_EQ(mp.insts.capacity(), mp.insts.size());
    }
}

TEST(RegAlloc, EmissionBufferIsExactlySized)
{
    // Every emission path on one streamed schedule: single-use loads
    // stream into their consumer, single-use results stream to their
    // store or ride an FU-to-FU FIFO, a read-only key is spilled and
    // rematerialized from its home address at each use, and a Mac's
    // spilled accumulator is reloaded. Nine values used twice, the key
    // and the accumulator are live at once on 8 registers. Emission
    // reserves exactly the instructions it emits.
    IrProgram prog;
    prog.degree = 1 << 12;
    prog.lanes = 64;
    IrBuilder b(prog);
    const int in = b.object("in", 11, false);
    const int key = b.object("key", 1, true);
    const int out = b.object("out", 10, false);
    const int k = b.load(key, 0, 1).limbs[0];
    const int acc = b.mulImm(b.load(in, 0, 1), 3).limbs[0];
    std::vector<int> values;
    for (int i = 0; i < 9; ++i)
        values.push_back(b.emit1(IrOp::Mul, b.load(in, i + 1, 1).limbs[0],
                                 k, 0));
    for (int i = 0; i < 9; ++i) {
        const int sum = b.emit1(IrOp::Add, values[size_t(i)],
                                values[size_t(i)], 0);
        b.store(out, i, b.ntt(PolyVal{{sum}}));
    }
    IrInst mac;
    mac.op = IrOp::Mac;
    mac.a = b.load(in, 10, 1).limbs[0];
    mac.b = k;
    mac.c = acc;
    const int fused = prog.emit(mac);
    b.store(out, 9, PolyVal{{fused}});

    std::vector<int> order(prog.insts.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = int(i);
    for (RegAllocPolicy policy :
         {RegAllocPolicy::Linear, RegAllocPolicy::Priority}) {
        CompilerOptions opts;
        opts.regalloc = policy;
        opts.sramBytes = 8 * prog.degree * 8;
        opts.fifoDepth = 4; // the accumulator's use is too far to forward
        StatSet stats;
        const StreamingInfo streaming =
            runStreaming(prog, order, true, opts.fifoDepth, stats);
        const MachineProgram mp =
            runRegAllocAndCodegen(prog, order, streaming, opts, stats);
        EXPECT_GT(stats.get("stream.loads"), 0.0);
        EXPECT_GT(stats.get("stream.stores"), 0.0);
        EXPECT_GT(stats.get("stream.fifoForwards"), 0.0);

        // The key is never loaded at its definition, only reloaded
        // from its home address before each use.
        size_t key_reloads = 0;
        bool acc_reloaded = false;
        for (size_t j = 0; j < mp.insts.size(); ++j) {
            const MachInst &mi = mp.insts[j];
            if (mi.op == Opcode::LOAD_RES && mi.irId == k)
                ++key_reloads;
            if (mi.op == Opcode::MMAC && j > 0) {
                const MachInst &prev = mp.insts[j - 1];
                acc_reloaded = mi.src2.kind == OperandKind::Reg &&
                               prev.op == Opcode::LOAD_RES &&
                               prev.irId == acc &&
                               prev.dest.reg == mi.src2.reg;
            }
        }
        EXPECT_GT(key_reloads, 1u);
        EXPECT_TRUE(acc_reloaded);
        EXPECT_EQ(mp.insts.capacity(), mp.insts.size());
    }
}

TEST(Compiler, OptimizationReducesInstructionCount)
{
    // The paper reports its code optimizer removes 12.9% of the
    // fully-packed bootstrapping instructions; ours must achieve a
    // substantial reduction too (exact value depends on lowering).
    FheParams fhe;
    fhe.logN = 15;
    fhe.levels = 16;
    fhe.dnum = 4;
    Workload w = buildBootstrapping(fhe, {1024, 3, 2, 127, 8});
    Compiler compiler;
    compiler.compile(w.program);
    EXPECT_GT(compiler.stats().get("optimized.reductionPct"), 10.0);
}

TEST(Compiler, DisassemblyIsReadable)
{
    IrProgram prog = tinyProgram();
    Compiler compiler;
    MachineProgram mp = compiler.compile(prog);
    std::string text = disassemble(mp);
    EXPECT_NE(text.find("LoadRes"), std::string::npos);
    EXPECT_NE(text.find("StoreRes"), std::string::npos);
}

} // namespace
} // namespace effact
