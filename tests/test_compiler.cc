/**
 * @file
 * Compiler backend tests: each pass on hand-built programs, then the
 * whole pipeline on paper-scale workloads (invariants: no lost stores,
 * spills appear exactly when SRAM is short, streaming only with single
 * consumers).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <climits>
#include <functional>

#include "common/hash.h"
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

/** Runs PRE on `prog` and `referencePre` on a copy of it; both must
 *  leave the same program fingerprint and the same `pre.*` counts.
 *  Returns PRE's statistics. */
StatSet
preMatchingReference(IrProgram prog, const std::string &tag = "")
{
    IrProgram expected = prog;
    StatSet expected_stats;
    referencePre(expected, expected_stats);
    StatSet stats;
    runPre(prog, stats);
    EXPECT_EQ(fingerprint(prog), fingerprint(expected)) << tag;
    EXPECT_EQ(stats.toString(), expected_stats.toString()) << tag;
    return stats;
}

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

    const StatSet stats = preMatchingReference(prog);
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
            const StatSet stats = preMatchingReference(prog, tag);
            EXPECT_EQ(stats.get("pre.readOnlyReloadsRemoved"), dups) << tag;
            EXPECT_EQ(stats.get("pre.cseRemoved"), dups) << tag;
            // Nothing is stored, so everything that survived VN is dead.
            EXPECT_EQ(stats.get("pre.deadCodeRemoved"), n - 2 * dups)
                << tag;
        }
    }
}

// --- PRE: the scan's lookahead ------------------------------------------
//
// The scan keys instruction i + 16 and reads the home slot of
// instruction i + 8 before it probes instruction i (`kKeyAhead` and
// `kSlotAhead` in src/compiler/pre.cc). Those early keys are built from
// operands as they stand at that moment, so they are stale whenever an
// operand is merged inside the window; only the probe's own key may
// decide a merge.

/** A read-only load followed by `length` operations, each reading the
 *  one before it (NTT, multiply and add by the mutable value `x`, then
 *  a rotation); returns the last value. */
int
emitDependentChain(IrBuilder &b, int key, int x, int length)
{
    int v = b.load(key, 0, 1).limbs[0];
    for (int k = 0; k < length; ++k) {
        switch (k % 4) {
          case 0:
            v = b.emit1(IrOp::Ntt, v, -1, 0);
            break;
          case 1:
            v = b.emit1(IrOp::Mul, v, x, 0);
            break;
          case 2:
            v = b.emit1(IrOp::Add, x, v, 0);
            break;
          default:
            v = b.emit1(IrOp::Auto, v, -1, 0, IrTag::Normal, 5, true);
            break;
        }
    }
    return v;
}

TEST(Pre, LookaheadOnShortPrograms)
{
    // Every length from 0 to twice the key distance: 0, 1, 8, 16 and 17
    // among them. Each program repeats a load -> NTT -> multiply -> add
    // chain, so every repeat merges into the first.
    for (int n = 0; n <= 33; ++n) {
        IrProgram prog;
        prog.degree = 1 << 10;
        IrBuilder b(prog);
        const int key = b.object("key", 1, true);
        int load = -1;
        int prev = -1;
        for (int k = 0; k < n; ++k) {
            switch (k % 4) {
              case 0:
                prev = load = b.load(key, 0, 1).limbs[0];
                break;
              case 1:
                prev = b.emit1(IrOp::Ntt, prev, -1, 0);
                break;
              case 2:
                prev = b.emit1(IrOp::Mul, prev, load, 0);
                break;
              default:
                prev = b.emit1(IrOp::Add, prev, load, 0);
                break;
            }
        }
        ASSERT_EQ(prog.insts.size(), size_t(n));
        // One load per started repeat; the first repeat's operations are
        // the winners.
        const int loads = (n + 3) / 4;
        const int winners = std::max(0, std::min(n, 4) - 1);
        const StatSet stats = preMatchingReference(prog, std::to_string(n));
        EXPECT_EQ(stats.get("pre.readOnlyReloadsRemoved"),
                  std::max(0, loads - 1))
            << n;
        EXPECT_EQ(stats.get("pre.cseRemoved"), n - loads - winners) << n;
    }
}

TEST(Pre, LookaheadKeysOfADuplicatedChainAreAllStale)
{
    // The copy of a dependent chain three windows long: each of its
    // operations reads the one just before it, which is merged one step
    // before the probe but long after the lookahead keyed it. Every
    // operation of the copy must still merge.
    constexpr int kLength = 48;
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    const int key = b.object("key", 1, true);
    const int in = b.object("in", 1, false);
    const int out = b.object("out", 2, false);
    const int x = b.load(in, 0, 1).limbs[0];
    const int first = emitDependentChain(b, key, x, kLength);
    const int copy = emitDependentChain(b, key, x, kLength);
    b.store(out, 0, PolyVal{{first}});
    b.store(out, 1, PolyVal{{copy}});

    const StatSet stats = preMatchingReference(prog);
    EXPECT_EQ(stats.get("pre.readOnlyReloadsRemoved"), 1);
    EXPECT_EQ(stats.get("pre.cseRemoved"), kLength);
    EXPECT_EQ(stats.get("pre.deadCodeRemoved"), 0);
}

TEST(Pre, LookaheadSkipsDeadInstructions)
{
    // Dead instructions inside the window, each an exact duplicate of a
    // live one before or after it: a dead instruction never becomes a
    // winner, and a live duplicate after it still merges (13 products
    // and 36 key reloads).
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    const int key = b.object("key", 4, true);
    const int in = b.object("in", 1, false);
    const int out = b.object("out", 1, false);
    const int x = b.load(in, 0, 1).limbs[0];
    std::vector<int> dead;
    int acc = x;
    for (int k = 0; k < 40; ++k) {
        const int limb = b.load(key, k % 4, 1).limbs[0];
        if (k % 3 == 0)
            dead.push_back(b.emit1(IrOp::Mul, limb, acc, 0));
        const int prod = b.emit1(IrOp::Mul, limb, acc, 0);
        if (k % 3 == 1)
            dead.push_back(b.emit1(IrOp::Mul, acc, limb, 0));
        if (k % 3 == 2)
            b.emit1(IrOp::Mul, acc, limb, 0);
        acc = b.emit1(IrOp::Add, prod, x, 0);
        if (k % 5 == 0)
            dead.push_back(b.load(key, k % 4, 1).limbs[0]);
    }
    b.store(out, 0, PolyVal{{acc}});
    for (int v : dead)
        prog.kill(prog.insts[v]);

    const StatSet stats = preMatchingReference(prog);
    EXPECT_EQ(stats.get("pre.readOnlyReloadsRemoved"), 40 - 4);
    EXPECT_EQ(stats.get("pre.cseRemoved"), 13);
}

TEST(Pre, LookaheadWinnerPastTheEndOfTheTable)
{
    // 15 immediate adds and their 15 duplicates over one mutable load: 31
    // instructions, so 64 slots. Of the 256 variants (immediates shifted
    // by 1000 each), with the current key hash, six (23, 28, 45, 84, 162
    // and 252) hold a duplicate whose home slot near the end of the table
    // is taken by another key, so its winner sits past the wrap at the
    // start of the table. The lookahead reads only the home slot, which
    // names the other key; the probe must walk on around the wrap.
    constexpr int kDistinct = 15;
    for (u64 variant = 0; variant < 256; ++variant) {
        IrProgram prog;
        prog.degree = 1 << 10;
        IrBuilder b(prog);
        const int in = b.object("in", 1, false);
        const int x = b.load(in, 0, 1).limbs[0];
        for (int copy = 0; copy < 2; ++copy)
            for (int j = 0; j < kDistinct; ++j)
                b.emit1(IrOp::Add, x, -1, 0, IrTag::Normal,
                        1 + variant * 1000 + u64(j), true);
        const std::string tag = std::to_string(variant);
        const StatSet stats = preMatchingReference(prog, tag);
        EXPECT_EQ(stats.get("pre.cseRemoved"), kDistinct) << tag;
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
                           buildBootstrapping(boot, {256, 2, 2}));
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
    Workload w = buildBootstrapping(fhe, {256, 2, 2});

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
                acc_reloaded = mi.src2().kind == OperandKind::Reg &&
                               prev.op == Opcode::LOAD_RES &&
                               prev.irId == acc &&
                               prev.dest().reg == mi.src2().reg;
            }
        }
        EXPECT_GT(key_reloads, 1u);
        EXPECT_TRUE(acc_reloaded);
        EXPECT_EQ(mp.insts.capacity(), mp.insts.size());
    }
}

/**
 * Hand-built spill-victim programs for the 8-register minimum (7
 * allocatable registers next to one scratch register). In program
 * order, value v_k = Mul(load k, #3) for k = 0..6 sits at position
 * 2k + 1, so v4 = 9, v5 = 11 and v6 = 13. At v6's definition the
 * registers hold v0..v5 plus load 6, and the allocator makes its one
 * spill decision among those seven intervals and v6 itself. The tail
 * after it fixes every candidate's remaining uses r and end distance d
 * from position 13:
 *
 *   14 Add(v0, v6)  16 Add(v1, v2)  18 `third`  20 Add(v4, v5)
 *
 * with a store after each. v0 and v6 end at d = 1, v1 and v2 at d = 3,
 * v3 at d = 5 (all worse (r + 1)/d ratios than v4's 2/7), load 6 at
 * d = 0. `third` is Mul(v3, #3), or Add(v3, v5) when `v5_outlives_v4`,
 * which also appends a third use of v5 at position 27: v5 then has
 * r = 3 and d = 14, the same ratio as v4 at twice the distance.
 */
struct SpillVictimProgram
{
    IrProgram prog;
    int v4 = -1;
    int v5 = -1;
};

SpillVictimProgram
spillVictimProgram(bool v5_outlives_v4)
{
    SpillVictimProgram s;
    IrProgram &prog = s.prog;
    prog.degree = 1 << 12;
    const int in = prog.addObject("in", 9, false);
    const int out = prog.addObject("out", 6, false);
    auto emit = [&prog](IrOp op, int a, int b, MemRef mem = {}) {
        IrInst inst;
        inst.op = op;
        inst.a = a;
        inst.b = b;
        inst.mem = mem;
        if (op == IrOp::Mul && b < 0) {
            inst.useImm = true;
            inst.imm = 3;
        }
        return prog.emit(inst);
    };
    int out_index = 0;
    auto store = [&](int v) {
        emit(IrOp::Store, v, -1, MemRef{out, out_index++});
    };
    std::vector<int> v;
    for (int k = 0; k < 7; ++k)
        v.push_back(emit(IrOp::Mul, emit(IrOp::Load, -1, -1, {in, k}), -1));
    s.v4 = v[4];
    s.v5 = v[5];
    EXPECT_EQ(v[6], 13);
    store(emit(IrOp::Add, v[0], v[6]));
    store(emit(IrOp::Add, v[1], v[2]));
    store(v5_outlives_v4 ? emit(IrOp::Add, v[3], v[5])
                         : emit(IrOp::Mul, v[3], -1));
    store(emit(IrOp::Add, v[4], v[5]));
    if (v5_outlives_v4) {
        store(emit(IrOp::Mul, emit(IrOp::Load, -1, -1, {in, 7}), -1));
        const int u = emit(IrOp::Mul, emit(IrOp::Load, -1, -1, {in, 8}), -1);
        const int last = emit(IrOp::Add, v[5], u);
        EXPECT_EQ(last, 27);
        store(last);
    }
    return s;
}

/** Allocates `prog` in program order on 8 registers under `policy`
 *  and returns the values that got a spill store. */
std::vector<int>
spilledValues(const IrProgram &prog, RegAllocPolicy policy)
{
    std::vector<int> order(prog.insts.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = int(i);
    CompilerOptions opts;
    opts.regalloc = policy;
    opts.sramBytes = 8 * prog.degree * 8;
    opts.issueWindow = 1; // one reload per instruction: one scan
    StatSet stats;
    const StreamingInfo streaming =
        runStreaming(prog, order, false, opts.fifoDepth, stats);
    const MachineProgram mp =
        runRegAllocAndCodegen(prog, order, streaming, opts, stats);
    EXPECT_EQ(stats.get("regalloc.registers"), 8.0);
    EXPECT_EQ(stats.get("regalloc.scratchRegs"), 1.0);
    std::vector<int> spilled;
    for (const MachInst &mi : mp.insts)
        if (mi.op == Opcode::STORE_RES &&
            prog.insts[size_t(mi.irId)].op != IrOp::Store)
            spilled.push_back(mi.irId);
    return spilled;
}

TEST(RegAlloc, LinearSpillsLargerValueAmongEqualEnds)
{
    // v4 and v5 both end at position 20, the furthest end; v6 ends at
    // 14. The legacy scan evicts the greatest (end, value): v5.
    const SpillVictimProgram s = spillVictimProgram(false);
    EXPECT_EQ(spilledValues(s.prog, RegAllocPolicy::Linear),
              std::vector<int>{s.v5});
}

TEST(RegAlloc, PrioritySpillsSmallerValueAmongEqualRatiosAndDistances)
{
    // v4 and v5 tie on r = 1 and d = 7, the best (r + 1)/d ratio: the
    // smaller value id, v4, is evicted.
    const SpillVictimProgram s = spillVictimProgram(false);
    EXPECT_EQ(spilledValues(s.prog, RegAllocPolicy::Priority),
              std::vector<int>{s.v4});
}

TEST(RegAlloc, PrioritySpillsLargerEndDistanceAmongEqualRatios)
{
    // v4 (r = 1, d = 7) and v5 (r = 3, d = 14) tie on the best ratio,
    // 2/7: the larger end distance, v5, is evicted even though v4 has
    // the smaller value id.
    const SpillVictimProgram s = spillVictimProgram(true);
    EXPECT_EQ(spilledValues(s.prog, RegAllocPolicy::Priority),
              std::vector<int>{s.v5});
}

// --- Machine-code fingerprint ---------------------------------------------

/** A compiled program with spills and streaming, so every metadata
 *  field is non-zero. */
MachineProgram
fingerprintProgram()
{
    FheParams fhe;
    fhe.logN = 13;
    fhe.levels = 8;
    fhe.dnum = 2;
    Workload w = buildDbLookup(fhe, 32);
    CompilerOptions opts;
    opts.sramBytes = size_t(1) << 20;
    Compiler compiler(opts);
    return compiler.compile(w.program);
}

TEST(MachFingerprint, EveryLogicalFieldMovesIt)
{
    MachineProgram base = fingerprintProgram();
    ASSERT_GT(base.spillLoads, 0u);
    ASSERT_GT(base.spillStores, 0u);
    ASSERT_GT(base.streamedOps, 0u);
    // One compute instruction in the middle of the stream with every
    // operand slot in use (a register, a DRAM stream, an FU FIFO token
    // and an immediate), and one memory instruction, whose payload is
    // hbmAddr rather than imm.
    size_t at = base.insts.size() / 2;
    while (base.insts[at].isMemoryOp())
        ++at;
    base.insts[at] =
        MachInst(Opcode::MMAC, Operand::regOp(3),
                 Operand::stream(40, /*from_dram=*/true),
                 Operand::imm(5), Operand::stream(7));
    size_t mem_at = 0;
    while (!base.insts[mem_at].isMemoryOp())
        ++mem_at;
    const uint64_t fp = fingerprint(base);

    using Edit = std::function<void(MachineProgram &)>;
    std::vector<std::pair<std::string, Edit>> edits = {
        {"insts.size", [](MachineProgram &m) { m.insts.pop_back(); }},
        {"numRegs", [](MachineProgram &m) { ++m.numRegs; }},
        {"residueBytes", [](MachineProgram &m) { ++m.residueBytes; }},
        {"spillLoads", [](MachineProgram &m) { ++m.spillLoads; }},
        {"spillStores", [](MachineProgram &m) { ++m.spillStores; }},
        {"streamedOps", [](MachineProgram &m) { ++m.streamedOps; }},
    };
    // Every field the encoding stores.
    auto inst = [at](MachineProgram &m) -> MachInst & {
        return m.insts[at];
    };
    edits.push_back({"op", [&](MachineProgram &m) {
                         inst(m).op = Opcode::MMUL;
                     }});
    edits.push_back({"modulus", [&](MachineProgram &m) {
                         ++inst(m).modulus;
                     }});
    edits.push_back({"irId", [&](MachineProgram &m) { ++inst(m).irId; }});
    edits.push_back({"payload as imm", [&](MachineProgram &m) {
                         inst(m).setImm(inst(m).imm() + 1);
                     }});
    edits.push_back({"payload as hbmAddr", [&](MachineProgram &m) {
                         MachInst &mi = m.insts[mem_at];
                         mi.setHbmAddr(mi.hbmAddr() + m.residueBytes);
                     }});
    for (int s = 0; s < MachInst::kSlots; ++s) {
        const std::string prefix = "slot" + std::to_string(s) + ".";
        edits.push_back({prefix + "kind", [&, s](MachineProgram &m) {
                             const Operand o = inst(m).operand(s);
                             inst(m).setOperand(
                                 s, o.kind == OperandKind::Reg
                                        ? Operand::stream(u64(o.reg))
                                        : Operand::regOp(0));
                         }});
        edits.push_back({prefix + "word", [&, s](MachineProgram &m) {
                             Operand o = inst(m).operand(s);
                             if (o.kind == OperandKind::Reg)
                                 ++o.reg;
                             else
                                 ++o.value; // the payload, for Imm
                             inst(m).setOperand(s, o);
                         }});
        if (base.insts[at].operand(s).kind != OperandKind::Stream)
            continue; // only a stream slot holds a DRAM flag
        edits.push_back({prefix + "dram", [&, s](MachineProgram &m) {
                             const Operand o = inst(m).operand(s);
                             inst(m).setOperand(
                                 s, Operand::stream(o.value, !o.dram));
                         }});
    }
    ASSERT_EQ(edits.size(), 6u + 5u + 4u + 4u + 2u);
    for (const auto &[field, edit] : edits) {
        MachineProgram m = base;
        edit(m);
        EXPECT_NE(fingerprint(m), fp) << field;
    }
}

// --- Machine-instruction encoding at its limits ---------------------------

TEST(MachEncoding, EveryOperandKindRoundTripsAtItsLimits)
{
    const Operand limits[] = {
        Operand::none(),
        Operand::regOp(-1),
        Operand::regOp(INT_MIN),
        Operand::regOp(INT_MAX),
        Operand::stream(0),
        Operand::stream(UINT32_MAX), // the largest FIFO token a slot holds
        Operand::stream(UINT32_MAX, /*from_dram=*/true),
    };
    for (int s = 0; s < MachInst::kSlots; ++s) {
        for (const Operand &o : limits) {
            MachInst mi(Opcode::MMAC, Operand::regOp(0));
            mi.setOperand(s, o);
            const Operand back = mi.operand(s);
            EXPECT_EQ(back.kind, o.kind) << s;
            EXPECT_EQ(back.reg, o.reg) << s;
            EXPECT_EQ(back.value, o.value) << s;
            EXPECT_EQ(back.dram, o.dram) << s;
        }
    }
}

TEST(MachEncoding, PayloadIsTheImmediateOrTheHbmAddress)
{
    const u64 elt = 0xfedcba9876543211ULL; // all 64 bits
    MachInst mi(Opcode::AUTO, Operand::regOp(1), Operand::regOp(0));
    mi.setImm(elt);
    mi.setSrc1(Operand::imm(elt));
    EXPECT_EQ(mi.imm(), elt);
    EXPECT_EQ(mi.src1().value, elt);
    EXPECT_EQ(mi.hbmAddr(), 0u); // a compute op has no address
    EXPECT_NE(disassemble(mi).find("elt=" + std::to_string(elt)),
              std::string::npos);
    // An Imm operand reads the payload: it and imm() are one value.
    mi.setImm(3);
    EXPECT_EQ(mi.src1().value, 3u);

    const u64 addr = (u64(42) << 30) + (u64(1) << 19); // past 32 bits
    MachInst st(Opcode::STORE_RES, Operand::none(), Operand::regOp(2));
    st.setHbmAddr(addr);
    EXPECT_EQ(st.hbmAddr(), addr);
    EXPECT_EQ(st.imm(), 0u); // a memory op has no immediate
    st.setImm(0);            // ...and 0 is all it accepts
    EXPECT_EQ(st.hbmAddr(), addr);
}

TEST(MachEncoding, FingerprintHashesFivePackedWordsPerInstruction)
{
    // A DRAM stream slot holds residue units, and that word is what the
    // fingerprint hashes: injective given residueBytes, which the
    // header hashes.
    MachineProgram mp;
    mp.numRegs = 8;
    mp.residueBytes = size_t(1) << 19;
    mp.spillLoads = 1;
    mp.spillStores = 2;
    mp.streamedOps = 3;
    const u64 residue = (u64(1) << 14) + 5; // byte address > 2^33
    const u64 imm = 0x8000000000000007ULL;
    const u64 addr = u64(42) << 30;
    MachInst ld(Opcode::LOAD_RES, Operand::regOp(-1));
    ld.setHbmAddr(addr);
    ld.modulus = 645;
    MachInst mac(Opcode::MMAC, Operand::stream(UINT32_MAX),
                 Operand::stream(residue, /*from_dram=*/true),
                 Operand::imm(imm), Operand::regOp(6));
    mac.irId = 99;
    mp.insts = {ld, mac};

    // The documented packing. Word 0: op (bits 0-7), slot s's kind
    // (bits 8 + 2s), slot s's DRAM flag (bit 16 + s), modulus (bits
    // 32-63); words 1 and 2: the dest|src0 and src1|src2 slot words
    // (low|high half; None and Imm slots hold 0); word 3: the payload;
    // word 4: irId as 32 bits.
    const u64 kinds_ld = u64(OperandKind::Reg) << 8;
    const u64 kinds_mac =
        u64(OperandKind::Stream) << 8 | u64(OperandKind::Stream) << 10 |
        u64(OperandKind::Imm) << 12 | u64(OperandKind::Reg) << 14;
    const u64 src0_dram = u64(1) << (16 + MachInst::kSrc0);
    const std::array<u64, 5> words[2] = {
        {u64(Opcode::LOAD_RES) | kinds_ld | u64(645) << 32, UINT32_MAX, 0,
         addr, UINT32_MAX},
        {u64(Opcode::MMAC) | kinds_mac | src0_dram,
         UINT32_MAX | residue << 32, u64(6) << 32, imm, 99},
    };
    EXPECT_EQ(ld.packedWords(), words[0]);
    EXPECT_EQ(mac.packedWords(), words[1]);

    // The header hash takes the metadata, then word k of every
    // instruction feeds accumulator k, and the header mixes the five
    // accumulators' finished values.
    WordHash h;
    for (u64 v : {u64(2), u64(8), u64(1) << 19, u64(1), u64(2), u64(3)})
        h.mix(v);
    for (size_t k = 0; k < 5; ++k) {
        WordHash acc;
        for (const std::array<u64, 5> &inst : words)
            acc.mix(inst[k]);
        h.mix(acc.finish());
    }
    EXPECT_EQ(fingerprint(mp), h.finish());
}

TEST(MachEncodingDeathTest, SettersRejectWhatTheEncodingCannotHold)
{
    MachInst mi(Opcode::MMUL, Operand::regOp(0), Operand::regOp(1),
                Operand::regOp(2));
    EXPECT_DEATH(mi.setSrc0(Operand::stream(u64(UINT32_MAX) + 1)),
                 "FIFO token 4294967296 does not fit");
    EXPECT_DEATH(mi.setSrc0(Operand::stream(u64(1) << 40, true)),
                 "DRAM stream residue 1099511627776 does not fit");
    EXPECT_DEATH(mi.setHbmAddr(4096), "holds an immediate");

    MachInst ld(Opcode::LOAD_RES, Operand::regOp(0));
    ld.setHbmAddr(4096);
    EXPECT_DEATH(ld.setImm(7), "holds an HBM address");
    EXPECT_DEATH(ld.setSrc0(Operand::imm(7)), "would overwrite its HBM");
}

TEST(MachFingerprint, OrderSensitiveAndBlindToScratchRegs)
{
    const MachineProgram base = fingerprintProgram();
    const uint64_t fp = fingerprint(base);

    MachineProgram swapped = base;
    size_t j = 1;
    while (j < swapped.insts.size() &&
           disassemble(swapped.insts[j]) == disassemble(swapped.insts[0]))
        ++j;
    ASSERT_LT(j, swapped.insts.size());
    std::swap(swapped.insts[0], swapped.insts[j]);
    EXPECT_NE(fingerprint(swapped), fp) << "must be order-sensitive";

    // The scratch pool describes the allocator's partition of the
    // register file, not the instruction stream.
    MachineProgram scratch = base;
    scratch.scratchRegs += 3;
    EXPECT_EQ(fingerprint(scratch), fp);
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
    Workload w = buildBootstrapping(fhe, {1024, 3, 2});
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
