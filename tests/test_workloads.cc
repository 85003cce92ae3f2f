/**
 * @file
 * Workload-generator tests: program well-formedness, instruction-mix
 * shape versus Fig. 3, and kernel op-count invariants.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "ir/workloads.h"

namespace effact {
namespace {

FheParams
paperParams()
{
    FheParams p; // N=2^16, L=24, dnum=4 (Table III)
    return p;
}

void
checkWellFormed(const IrProgram &prog)
{
    for (size_t i = 0; i < prog.insts.size(); ++i) {
        const IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int operand : {inst.a, inst.b, inst.c}) {
            ASSERT_GE(operand, -1);
            if (operand >= 0) {
                ASSERT_LT(static_cast<size_t>(operand), i)
                    << "forward reference at " << i;
                ASSERT_FALSE(prog.insts[operand].dead);
            }
        }
        if (inst.mem.object >= 0) {
            ASSERT_LT(static_cast<size_t>(inst.mem.object),
                      prog.objects.size());
        }
    }
}

TEST(Workloads, AllBenchmarksAreWellFormed)
{
    for (auto &[name, w] : buildAllBenchmarks(paperParams())) {
        SCOPED_TRACE(name);
        checkWellFormed(w.program);
        EXPECT_GT(w.program.liveCount(), 1000u);
        EXPECT_GT(w.repeat, 0.0);
    }
}

TEST(Workloads, BootstrapMixMatchesFig3Shape)
{
    Workload w = buildBootstrapping(paperParams());
    StatSet mix = w.program.opMix();
    const double ntt = mix.get("NTT");
    const double mult = mix.get("MULT") + mix.get("BC_MULT");
    const double add = mix.get("ADD") + mix.get("BC_ADD");
    const double total = ntt + mult + add + mix.get("AUTO") +
                         mix.get("LOAD") + mix.get("STORE");

    // Fig. 3: NTT ~6.5%, MULT+ADD ~90% of compute instructions; BConv
    // accounts for roughly half the MULTs and ADDs. Structural lowering
    // will not match exactly — require the qualitative shape.
    EXPECT_LT(ntt / total, 0.20);
    EXPECT_GT((mult + add) / total, 0.60);
    EXPECT_GT(mix.get("BC_MULT") / mult, 0.30);
    EXPECT_LT(mix.get("BC_MULT") / mult, 0.70);
    EXPECT_GT(mix.get("BC_ADD") / add, 0.30);
    EXPECT_LT(mix.get("BC_ADD") / add, 0.70);
}

TEST(Workloads, MixIsBConvHeavyInAllCkksBenchmarks)
{
    for (auto &[name, w] : buildAllBenchmarks(paperParams())) {
        if (name == "DBLookup")
            continue; // depth-1 BGV: barely any key switching
        SCOPED_TRACE(name);
        StatSet mix = w.program.opMix();
        EXPECT_GT(mix.get("BC_MULT"), 0.0);
        EXPECT_GT(mix.get("BC_ADD"), 0.0);
    }
}

TEST(Workloads, KeySwitchOpCountsScaleWithDnum)
{
    FheParams p2 = paperParams();
    p2.dnum = 2;
    FheParams p4 = paperParams();
    p4.dnum = 4;

    auto loadCount = [](const FheParams &p) {
        IrProgram prog;
        KernelBuilder kb(prog, p);
        int evk = kb.switchingKeyObject("evk");
        IrCt a = kb.inputCiphertext("a", p.levels);
        IrCt b = kb.inputCiphertext("b", p.levels);
        kb.output("out", kb.hmult(a, b, evk));
        return prog.opMix().get("LOAD");
    };
    // More digits -> more evk polynomials streamed per key switch
    // (2 * dnum * (l + alpha) residues); total compute is NOT monotone
    // in dnum because alpha shrinks as dnum grows.
    EXPECT_GT(loadCount(p4), loadCount(p2));
}

/** Residues of the object named `name` in `prog` (-1 if absent). */
int
objectResidues(const IrProgram &prog, const std::string &name)
{
    for (const MemObject &o : prog.objects)
        if (o.name == name)
            return o.residues;
    return -1;
}

TEST(Workloads, ResNet20InputFitsTheQChain)
{
    // The activations enter at level 20, or at the top of a shorter Q
    // chain: at 18 and 19 levels (both at or above the resnet20 kind's
    // floor) a level-20 input would carry more limbs than there are
    // primes.
    for (size_t levels : {size_t(18), size_t(19), size_t(24)}) {
        SCOPED_TRACE(levels);
        FheParams fhe = paperParams();
        fhe.levels = levels;
        const Workload w = buildResNet20(fhe);
        checkWellFormed(w.program);
        const size_t level = std::min<size_t>(20, levels);
        EXPECT_EQ(objectResidues(w.program, "activations"),
                  static_cast<int>(2 * level));
    }
}

TEST(Workloads, EachBootstrapEndsAtItsDeclaredDepth)
{
    // A bootstrap's output sits `budget.levels()` below the chain top, so
    // the floor `levels() + 1` leaves it at level 1: this pins EvalMod's
    // declared 10 levels against what polyEval consumes.
    const struct
    {
        Workload (*build)(const FheParams &);
        const char *output;
        BootstrapBudget budget;
    } cases[] = {
        {[](const FheParams &fhe) { return buildBootstrapping(fhe); },
         "ct_out", BootstrapBudget{}},
        {buildHelr, "weights_out", kHelrBootstrapBudget},
        {buildResNet20, "act_out", BootstrapBudget{}},
    };
    for (const auto &c : cases) {
        for (size_t levels : {c.budget.levels() + 1, size_t(24)}) {
            SCOPED_TRACE(std::string(c.output) + " @ " +
                         std::to_string(levels));
            FheParams fhe = paperParams();
            fhe.levels = levels;
            EXPECT_EQ(objectResidues(c.build(fhe).program, c.output),
                      static_cast<int>(2 * (levels - c.budget.levels())));
        }
    }
}

size_t
countOps(const IrProgram &prog, IrOp op)
{
    return size_t(std::count_if(
        prog.insts.begin(), prog.insts.end(),
        [op](const IrInst &inst) { return inst.op == op; }));
}

TEST(Workloads, DbLookupAggregatesEveryRecord)
{
    // Summing `records` slots takes ceil(log2(records)) rotate-and-adds:
    // 24 records need as many as 32, one more than 16.
    const FheParams fhe = paperParams();
    const size_t per_rotation = countOps(buildDbLookup(fhe, 2).program,
                                         IrOp::Auto);
    ASSERT_GT(per_rotation, 0u);
    EXPECT_EQ(countOps(buildDbLookup(fhe, 1).program, IrOp::Auto), 0u);
    for (const auto &[records, rotations] :
         std::vector<std::pair<size_t, size_t>>{
             {3, 2}, {16, 4}, {17, 5}, {24, 5}, {32, 5}, {40, 6},
             {48, 6}, {256, 8}}) {
        EXPECT_EQ(countOps(buildDbLookup(fhe, records).program, IrOp::Auto),
                  rotations * per_rotation)
            << records << " records";
    }
}

TEST(Workloads, ResNet20BootstrapFitsTheRing)
{
    // At logN 13 the ring holds 4 096 slots: ResNet-20's bootstrap runs
    // the same CtS stages as the bootstrap kind's (17 diagonals, not the
    // 27 of 2^15 slots) and amortizes over 4 096 slots.
    FheParams fhe = paperParams();
    fhe.logN = 13;
    fhe.levels = BootstrapBudget{}.levels() + 1;
    const Workload resnet = buildResNet20(fhe);
    const Workload boot = buildBootstrapping(fhe);
    const int cts_level = objectResidues(boot.program, "cts_diag_0") / 17;
    EXPECT_EQ(cts_level, static_cast<int>(fhe.levels));
    EXPECT_EQ(objectResidues(resnet.program, "cts_diag_0"), 17 * cts_level);
    EXPECT_EQ(resnet.amortizeFactor, 4096.0);

    // At logN 16 the clamp leaves Table III's 2^15 slots.
    const Workload paper = buildResNet20(paperParams());
    EXPECT_EQ(paper.amortizeFactor, double(size_t(1) << 15));
    EXPECT_EQ(objectResidues(paper.program, "cts_diag_0"), 27 * 24);
}

TEST(WorkloadsDeathTest, InputCiphertextAboveTheQChainIsRejected)
{
    FheParams fhe = paperParams();
    fhe.levels = 18;
    IrProgram prog;
    KernelBuilder kb(prog, fhe);
    EXPECT_DEATH(kb.inputCiphertext("x", 19),
                 "level 19 exceeds the 18-prime Q chain");
}

TEST(Workloads, RescaleCostsLinearInLevel)
{
    FheParams p = paperParams();
    IrProgram prog;
    KernelBuilder kb(prog, p);
    IrCt a = kb.inputCiphertext("a", 10);
    size_t before = prog.liveCount();
    kb.rescale(a);
    size_t cost10 = prog.liveCount() - before;

    IrCt b = kb.inputCiphertext("b", 20);
    before = prog.liveCount();
    kb.rescale(b);
    size_t cost20 = prog.liveCount() - before;
    EXPECT_GT(cost20, cost10);
    EXPECT_LT(cost20, 3 * cost10);
}

TEST(Workloads, BconvMatchesAnalyticCounts)
{
    FheParams p = paperParams();
    IrProgram prog;
    KernelBuilder kb(prog, p);
    IrBuilder &b = kb.builder();
    int obj = b.object("in", 6, false);
    PolyVal v = b.load(obj, 0, 6);
    size_t before = prog.liveCount();
    kb.bconv(v, 10);
    size_t cost = prog.liveCount() - before;
    // l qhat-inv MULs + per target limb: l MULs + (l-1) ADDs.
    EXPECT_EQ(cost, 6 + 10 * 6 + 10 * 5);
}

/** Value id of the first `op` at or after `from` whose operands are
 *  `a` and `b` (b = -1 matches any), or -1 if there is none. */
int
findInst(const IrProgram &prog, IrOp op, int a, int b = -1, size_t from = 0)
{
    for (size_t i = from; i < prog.insts.size(); ++i) {
        const IrInst &inst = prog.insts[i];
        if (inst.op == op && inst.a == a && (b < 0 || inst.b == b))
            return static_cast<int>(i);
    }
    return -1;
}

TEST(Workloads, KernelEmissionOrderIsPinned)
{
    // Value ids feed every fingerprint, so the order in which a kernel
    // emits two sibling computations is fixed in the source, not left
    // to the C++ compiler's argument evaluation order. The pinned order:
    // HMULT's cross term emits a.c1 * b.c0 before a.c0 * b.c1, and each
    // hoisted baby rotation emits the ModDown of its c0 accumulator
    // before the automorphism of c0.
    FheParams p = paperParams();
    p.levels = 4;
    p.dnum = 2;
    IrProgram prog;
    KernelBuilder kb(prog, p);
    const int evk = kb.switchingKeyObject("evk");
    const IrCt a = kb.inputCiphertext("a", p.levels);
    const IrCt b = kb.inputCiphertext("b", p.levels);

    kb.hmult(a, b, evk);
    const int c1b0 = findInst(prog, IrOp::Mul, a.c1.limbs[0], b.c0.limbs[0]);
    const int c0b1 = findInst(prog, IrOp::Mul, a.c0.limbs[0], b.c1.limbs[0]);
    ASSERT_GE(c1b0, 0);
    ASSERT_GE(c0b1, 0);
    EXPECT_LT(c1b0, c0b1);

    // Two diagonals, n1 = 2: one baby rotation, by Galois element 6.
    // Its ModDown holds the transform's first Sub: the hoisted ModUp
    // and the key inner product emit none.
    const size_t start = prog.insts.size();
    const int diag = kb.plainObject("diag", static_cast<int>(2 * p.levels));
    kb.linearTransform(a, 2, 2, diag, evk);
    int first_sub = -1;
    for (size_t i = start; i < prog.insts.size() && first_sub < 0; ++i)
        if (prog.insts[i].op == IrOp::Sub)
            first_sub = static_cast<int>(i);
    const int rot_c0 = findInst(prog, IrOp::Auto, a.c0.limbs[0], -1, start);
    ASSERT_GE(first_sub, 0);
    ASSERT_GE(rot_c0, 0);
    EXPECT_EQ(prog.insts[rot_c0].imm, 6u);
    EXPECT_LT(first_sub, rot_c0);
}

TEST(Workloads, TfheUsesAutoAndNtt)
{
    Workload w = buildTfheBootstrap();
    checkWellFormed(w.program);
    StatSet mix = w.program.opMix();
    EXPECT_GT(mix.get("AUTO"), 0.0);
    EXPECT_GT(mix.get("NTT"), 0.0);
    EXPECT_GT(mix.get("MULT"), 0.0);
}

TEST(Workloads, ReadOnlyFootprintIncludesKeys)
{
    Workload w = buildBootstrapping(paperParams());
    // Three switching-key objects at dnum=4, L=24, alpha=6:
    // 3 * 4 * 2 * 30 residues * 512 KB = 360 MB minimum.
    EXPECT_GT(w.program.readOnlyBytes(), size_t(300) << 20);
}

TEST(Workloads, CompactHoldsExactlyTheLiveInstructions)
{
    // The compacted program lives through the whole back end and the
    // simulator, so compaction sizes it to the survivors, not to the
    // builder's capacity. Stores define no value, so killing them
    // leaves every live operand intact.
    Workload w = buildHelr(paperParams());
    size_t stores = 0;
    for (IrInst &inst : w.program.insts) {
        if (inst.op == IrOp::Store) {
            inst.dead = true;
            ++stores;
        }
    }
    const size_t live = w.program.insts.size() - stores;
    ASSERT_GT(stores, 0u);
    w.program.compact();
    EXPECT_EQ(w.program.insts.size(), live);
    EXPECT_EQ(w.program.insts.capacity(), live);
}

TEST(Workloads, CompactPreservesMix)
{
    Workload w = buildHelr(paperParams());
    StatSet before = w.program.opMix();
    w.program.compact();
    StatSet after = w.program.opMix();
    for (const auto &[key, value] : before.all())
        EXPECT_DOUBLE_EQ(after.get(key), value) << key;
}

} // namespace
} // namespace effact
