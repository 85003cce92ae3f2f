/**
 * @file
 * DepGraph tests: machine-level true (register + FIFO-token) and anti
 * (WAW) edges, IR-level operand and memory-alias edges, indegrees and
 * critical-path priorities.
 */
#include <gtest/gtest.h>

#include "compiler/pass.h"
#include "ir/builder.h"
#include "reference_sim.h"
#include "sched/depgraph.h"
#include "sim/machine.h"

namespace effact {
namespace {

/** Collects (from, to, kind) triples through the succ ranges. */
std::vector<std::tuple<int, int, DepKind>>
allEdges(const DepGraph &g)
{
    std::vector<std::tuple<int, int, DepKind>> out;
    for (size_t i = 0; i < g.size(); ++i)
        for (const DepEdge &e : g.succs(i))
            out.emplace_back(static_cast<int>(i), e.other, e.kind);
    return out;
}

TEST(DepGraphMachine, RegisterTrueDependences)
{
    MachineProgram mp;
    mp.residueBytes = 1 << 12;
    MachInst ld;
    ld.op = Opcode::LOAD_RES;
    ld.setDest(Operand::regOp(0));
    mp.insts.push_back(ld);                                         // 0
    mp.insts.push_back(MachInst(Opcode::NTT, Operand::regOp(1),
                                Operand::regOp(0)));                 // 1
    MachInst st;
    st.op = Opcode::STORE_RES;
    st.setSrc0(Operand::regOp(1));
    mp.insts.push_back(st);                                         // 2

    DepGraph g = DepGraph::fromMachine(mp);
    auto edges = allEdges(g);
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0], std::make_tuple(0, 1, DepKind::True));
    EXPECT_EQ(edges[1], std::make_tuple(1, 2, DepKind::True));
    auto indeg = g.indegrees();
    EXPECT_EQ(indeg[0], 0u);
    EXPECT_EQ(indeg[1], 1u);
    EXPECT_EQ(indeg[2], 1u);
}

TEST(DepGraphMachine, FifoTokenDependence)
{
    MachineProgram mp;
    mp.residueBytes = 1 << 12;
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::stream(7),
                                Operand::regOp(0), Operand::regOp(1)));
    mp.insts.push_back(MachInst(Opcode::MMAD, Operand::regOp(2),
                                Operand::stream(7), Operand::regOp(1)));

    DepGraph g = DepGraph::fromMachine(mp);
    auto edges = allEdges(g);
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0], std::make_tuple(0, 1, DepKind::True));
}

TEST(DepGraphMachine, DramStreamSourceHasNoProducer)
{
    MachineProgram mp;
    mp.residueBytes = 1 << 12;
    // A DRAM-fed streaming operand comes from memory, not from another
    // instruction: no edge even if a FIFO token would match.
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::stream(3),
                                Operand::regOp(0), Operand::regOp(1)));
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::regOp(2),
                                Operand::stream(3, /*from_dram=*/true),
                                Operand::regOp(1)));

    DepGraph g = DepGraph::fromMachine(mp);
    EXPECT_EQ(g.edgeCount(), 0u);
}

TEST(DepGraphMachine, RegisterReuseCreatesAntiEdge)
{
    MachineProgram mp;
    mp.residueBytes = 1 << 12;
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::regOp(0),
                                Operand::regOp(1), Operand::regOp(2)));
    mp.insts.push_back(MachInst(Opcode::MMAD, Operand::regOp(3),
                                Operand::regOp(0), Operand::regOp(1)));
    // Reuses r0: anti edge from the previous writer (inst 0).
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::regOp(0),
                                Operand::regOp(2), Operand::regOp(1)));

    DepGraph g = DepGraph::fromMachine(mp);
    auto edges = allEdges(g);
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0], std::make_tuple(0, 1, DepKind::True));
    EXPECT_EQ(edges[1], std::make_tuple(0, 2, DepKind::Anti));
}

/**
 * Regression pin for the *intentional* WAW-only anti-dependence
 * semantics (see ROADMAP): a register overwrite waits for the previous
 * WRITER of that register, but NOT for unissued READERS of the old
 * value (no WAR edges). This is faithful to the seed simulator's
 * machine model; a future "fix" that adds WAR edges would silently
 * change simulated cycles everywhere, so both the edge set and the
 * cycle-level consequence are asserted exactly.
 */
TEST(DepGraphMachine, WarOverwriteDoesNotWaitForUnissuedReaders)
{
    MachineProgram mp;
    const size_t n = size_t(1) << 15;
    mp.residueBytes = n * 8;
    // i0 writes r0; i1 reads r0 (the old value); i2 overwrites r0
    // before i1 has necessarily issued; i3 consumes the new r0.
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::regOp(0),
                                Operand::regOp(1), Operand::regOp(2)));
    mp.insts.push_back(MachInst(Opcode::MMAD, Operand::regOp(3),
                                Operand::regOp(0), Operand::regOp(1)));
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::regOp(0),
                                Operand::regOp(2), Operand::regOp(4)));
    mp.insts.push_back(MachInst(Opcode::NTT, Operand::regOp(5),
                                Operand::regOp(0)));

    DepGraph g = DepGraph::fromMachine(mp);
    auto edges = allEdges(g);
    // Exactly: 0->1 RAW, 0->2 WAW, 2->3 RAW. No 1->2 WAR edge.
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(edges[0], std::make_tuple(0, 1, DepKind::True));
    EXPECT_EQ(edges[1], std::make_tuple(0, 2, DepKind::Anti));
    EXPECT_EQ(edges[2], std::make_tuple(2, 3, DepKind::True));

    // Cycle-level consequence: the anti edge orders *issue* but carries
    // no data latency, so i2 starts at t = 0 on the second MUL unit —
    // while i1, which waits for i0's data, has not issued yet — and i3
    // only waits for i2. With ew = ceil(n/lanes) and the 16-cycle
    // startup, i3 finishes at (ew + 16) + ntt + 16; a WAR-honoring
    // model would stall i2 (and i3) behind i1's issue at ew + 16.
    HardwareConfig hw = HardwareConfig::asicEffact27(); // 2 MUL units
    SimReport r = Simulator(hw).run(mp);
    const double ew = double(n) / double(hw.lanes);
    const double ntt = double(n) * 15 / 2.0 / double(hw.lanes);
    EXPECT_NEAR(r.cycles, ew + 16 + ntt + 16, 1e-6);
    SimReport ref = referenceSimulate(hw, mp);
    EXPECT_DOUBLE_EQ(r.cycles, ref.cycles);
}

TEST(DepGraphMachine, StoreDoesNotDefineItsOperand)
{
    MachineProgram mp;
    mp.residueBytes = 1 << 12;
    MachInst st;
    st.op = Opcode::STORE_RES;
    st.setSrc0(Operand::regOp(0));
    st.setDest(Operand::regOp(0)); // stores write memory, not registers
    mp.insts.push_back(st);
    mp.insts.push_back(MachInst(Opcode::NTT, Operand::regOp(1),
                                Operand::regOp(0)));

    DepGraph g = DepGraph::fromMachine(mp);
    // The NTT's source resolves to no producer (live-in register), and
    // the store contributes no anti edge.
    EXPECT_EQ(g.edgeCount(), 0u);
}

TEST(DepGraphMachine, DuplicateSourceCountsTwice)
{
    MachineProgram mp;
    mp.residueBytes = 1 << 12;
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::regOp(0),
                                Operand::regOp(1), Operand::regOp(2)));
    // Squaring: both sources are the same value; the indegree counts
    // both edges so the wake-up countdown stays consistent.
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::regOp(3),
                                Operand::regOp(0), Operand::regOp(0)));

    DepGraph g = DepGraph::fromMachine(mp);
    EXPECT_EQ(g.edgeCount(), 2u);
    EXPECT_EQ(g.indegrees()[1], 2u);
}

TEST(DepGraphMachine, EdgeCountIsTheCsrEdgeCount)
{
    // After finalize() the raw edge list is gone; edgeCount() reads the
    // successor CSR, and the indegrees count the same edges.
    MachineProgram mp;
    mp.residueBytes = 1 << 12;
    mp.insts.push_back(MachInst(Opcode::NTT, Operand::stream(7),
                                Operand::regOp(1)));
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::regOp(0),
                                Operand::stream(7), Operand::regOp(1)));
    mp.insts.push_back(MachInst(Opcode::MMAD, Operand::regOp(0),
                                Operand::regOp(0), Operand::regOp(0)));
    mp.insts.push_back(MachInst(Opcode::NTT, Operand::regOp(2),
                                Operand::regOp(0)));

    DepGraph g = DepGraph::fromMachine(mp);
    size_t succs = 0, indegrees = 0;
    for (size_t i = 0; i < g.size(); ++i)
        succs += g.succs(i).size();
    for (uint32_t d : g.indegrees())
        indegrees += d;
    // fifo 0 -> 1, r0 1 -> 2 twice plus its WAW, r0 2 -> 3.
    EXPECT_EQ(g.edgeCount(), 5u);
    EXPECT_EQ(g.edgeCount(), succs);
    EXPECT_EQ(g.edgeCount(), indegrees);
}

TEST(DepGraphIr, OperandAndAliasEdges)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int buf = b.object("buf", 1, false);
    PolyVal l1 = b.load(buf, 0, 1);             // 0
    PolyVal m = b.mulImm(l1, 3);                // 1
    b.store(buf, 0, m);                         // 2
    PolyVal l2 = b.load(buf, 0, 1);             // 3 (RAW on the store)
    b.store(buf, 0, b.mulImm(l2, 5));           // 4, 5

    StatSet stats;
    auto mem = runAliasAnalysis(prog, stats);
    DepGraph g = DepGraph::fromIr(prog, mem);

    // SSA operand edges: 0->1, 1->2, 3->4, 4->5.
    bool saw_alias = false;
    for (size_t i = 0; i < g.size(); ++i)
        for (const DepEdge &e : g.succs(i))
            saw_alias |= e.kind == DepKind::MemAlias;
    EXPECT_TRUE(saw_alias);
    EXPECT_EQ(g.edgeCount(), 4u + mem.size());
    // The second load waits for the first store via the alias edge.
    bool store_to_load = false;
    for (const DepEdge &e : g.succs(2))
        store_to_load |= e.other == 3 && e.kind == DepKind::MemAlias;
    EXPECT_TRUE(store_to_load);
}

TEST(DepGraphIr, DeadInstructionsAreIsolated)
{
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 1, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal m = b.mulImm(a, 3);
    b.store(out, 0, m);
    prog.insts[m.limbs[0]].dead = true;
    prog.insts[2].dead = true; // the store

    DepGraph g = DepGraph::fromIr(prog, {});
    EXPECT_EQ(g.edgeCount(), 0u);
}

TEST(DepGraph, CriticalPathPriorities)
{
    // Chain 0 -> 1 -> 2 with latencies 2, 3, 5 plus a free node 3.
    IrProgram prog;
    prog.degree = 1 << 10;
    IrBuilder b(prog);
    int in = b.object("in", 2, false);
    PolyVal a = b.load(in, 0, 1);                // 0
    PolyVal m = b.mulImm(a, 3);                  // 1
    int out = b.object("out", 1, false);
    b.store(out, 0, m);                          // 2
    b.load(in, 1, 1);                            // 3 (independent)

    DepGraph g = DepGraph::fromIr(prog, {});
    std::vector<double> lat = {2.0, 3.0, 5.0, 7.0};
    auto prio = g.criticalPath(lat);
    EXPECT_DOUBLE_EQ(prio[2], 5.0);
    EXPECT_DOUBLE_EQ(prio[1], 8.0);
    EXPECT_DOUBLE_EQ(prio[0], 10.0);
    EXPECT_DOUBLE_EQ(prio[3], 7.0);
}

} // namespace
} // namespace effact
