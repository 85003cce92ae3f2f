/**
 * @file
 * Simulator tests: latency model, bandwidth accounting, FU contention,
 * NTT<->MAC reuse, and streaming overlap behaviour.
 */
#include <gtest/gtest.h>

#include <string>

#include "compiler/pass.h"
#include "ir/workloads.h"
#include "reference_sim.h"
#include "sim/machine.h"

namespace effact {
namespace {

/** One load, one NTT, one store over a single residue. */
MachineProgram
loadComputeStore(size_t residue_bytes)
{
    MachineProgram mp;
    mp.residueBytes = residue_bytes;
    MachInst ld;
    ld.op = Opcode::LOAD_RES;
    ld.setDest(Operand::regOp(0));
    mp.insts.push_back(ld);
    MachInst ntt;
    ntt.op = Opcode::NTT;
    ntt.setDest(Operand::regOp(1));
    ntt.setSrc0(Operand::regOp(0));
    mp.insts.push_back(ntt);
    MachInst st;
    st.op = Opcode::STORE_RES;
    st.setSrc0(Operand::regOp(1));
    mp.insts.push_back(st);
    return mp;
}

TEST(Simulator, SerialChainLatencyAddsUp)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    const size_t n = size_t(1) << 16;
    MachineProgram mp = loadComputeStore(n * 8);
    SimReport r = Simulator(hw).run(mp);

    const double mem = double(n * 8) / hw.hbmBytesPerCycle();
    const double ntt = double(n) * 16 / 2 / double(hw.lanes);
    // Load, then NTT, then store, plus fixed startup latencies.
    EXPECT_NEAR(r.cycles, 2 * mem + ntt + 3 * 16, 2.0);
    EXPECT_DOUBLE_EQ(r.dramBytes, double(2 * n * 8));
}

TEST(Simulator, IndependentOpsOverlapAcrossUnits)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    const size_t n = size_t(1) << 16;
    MachineProgram mp;
    mp.residueBytes = n * 8;
    // Two independent MMULs with 2 mul units: should overlap fully.
    for (int i = 0; i < 2; ++i) {
        MachInst mi;
        mi.op = Opcode::MMUL;
        mi.setDest(Operand::regOp(2 + i));
        mi.setSrc0(Operand::regOp(0));
        mi.setSrc1(Operand::regOp(1));
        mp.insts.push_back(mi);
    }
    SimReport r2 = Simulator(hw).run(mp);

    // Four: exceeds the 2 mul units -> serialization.
    for (int i = 0; i < 2; ++i) {
        MachInst mi;
        mi.op = Opcode::MMUL;
        mi.setDest(Operand::regOp(4 + i));
        mi.setSrc0(Operand::regOp(0));
        mi.setSrc1(Operand::regOp(1));
        mp.insts.push_back(mi);
    }
    SimReport r4 = Simulator(hw).run(mp);
    EXPECT_GT(r4.cycles, r2.cycles);
    EXPECT_NEAR(r4.cycles, r2.cycles + 64, 2.0); // one extra beat batch
}

TEST(Simulator, MacReuseUsesIdleNttUnits)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    const size_t n = size_t(1) << 16;
    MachineProgram mp;
    mp.residueBytes = n * 8;
    // A burst of independent MACs: with reuse they spread over
    // NTT+MUL units; without, they serialize on the MUL units.
    for (int i = 0; i < 8; ++i) {
        MachInst mi;
        mi.op = Opcode::MMAC;
        mi.setDest(Operand::regOp(8 + i));
        mi.setSrc0(Operand::regOp(0));
        mi.setSrc1(Operand::regOp(1));
        mp.insts.push_back(mi);
    }
    SimReport with = Simulator(hw).run(mp);
    hw.nttMacReuse = false;
    SimReport without = Simulator(hw).run(mp);
    EXPECT_LT(with.cycles, without.cycles);
}

TEST(Simulator, StreamingOperandOverlapsComputeWithTransfer)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    const size_t n = size_t(1) << 16;

    // Explicit load then MMUL (no streaming).
    MachineProgram mp1;
    mp1.residueBytes = n * 8;
    {
        MachInst ld;
        ld.op = Opcode::LOAD_RES;
        ld.setDest(Operand::regOp(0));
        mp1.insts.push_back(ld);
        MachInst mul;
        mul.op = Opcode::MMUL;
        mul.setDest(Operand::regOp(2));
        mul.setSrc0(Operand::regOp(0));
        mul.setSrc1(Operand::regOp(1));
        mp1.insts.push_back(mul);
    }
    SimReport staged = Simulator(hw).run(mp1);

    // Streaming operand straight from DRAM.
    MachineProgram mp2;
    mp2.residueBytes = n * 8;
    {
        MachInst mul;
        mul.op = Opcode::MMUL;
        mul.setDest(Operand::regOp(2));
        mul.setSrc0(Operand::stream(0, /*from_dram=*/true));
        mul.setSrc1(Operand::regOp(1));
        mp2.insts.push_back(mul);
    }
    SimReport streamed = Simulator(hw).run(mp2);

    EXPECT_LT(streamed.cycles, staged.cycles);
    EXPECT_DOUBLE_EQ(streamed.dramBytes, staged.dramBytes);
}

TEST(Simulator, FifoForwardMatchesProducerConsumer)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    const size_t n = size_t(1) << 16;
    MachineProgram mp;
    mp.residueBytes = n * 8;
    MachInst prod;
    prod.op = Opcode::MMUL;
    prod.setDest(Operand::stream(7)); // FIFO token 7
    prod.setSrc0(Operand::regOp(0));
    prod.setSrc1(Operand::regOp(1));
    mp.insts.push_back(prod);
    MachInst cons;
    cons.op = Opcode::MMAD;
    cons.setDest(Operand::regOp(2));
    cons.setSrc0(Operand::stream(7));
    cons.setSrc1(Operand::regOp(1));
    mp.insts.push_back(cons);
    SimReport r = Simulator(hw).run(mp);
    // Consumer starts only after producer finishes: > one op each.
    EXPECT_GT(r.cycles, 2 * 64.0);
    EXPECT_EQ(r.dramBytes, 0.0);
}

TEST(Simulator, HigherBandwidthShortensMemoryBoundPrograms)
{
    FheParams fhe;
    fhe.logN = 15;
    fhe.levels = 16;
    fhe.dnum = 4;
    Workload w = buildBootstrapping(fhe, {1024, 2, 2});
    Compiler compiler;
    MachineProgram mp = compiler.compile(w.program);

    HardwareConfig slow = HardwareConfig::asicEffact27();
    slow.hbmBytesPerSec = 0.3e12;
    HardwareConfig fast = HardwareConfig::asicEffact27();
    fast.hbmBytesPerSec = 2.4e12;
    SimReport rs = Simulator(slow).run(mp);
    SimReport rf = Simulator(fast).run(mp);
    EXPECT_LT(rf.cycles, rs.cycles);
}

TEST(Simulator, UtilizationsAreFractions)
{
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 15; // the {2, 2} budget's 14 levels, output at 1
    fhe.dnum = 2;
    Workload w = buildBootstrapping(fhe, {256, 2, 2});
    Compiler compiler;
    MachineProgram mp = compiler.compile(w.program);
    SimReport r = Simulator(HardwareConfig::asicEffact27()).run(mp);
    for (double u : {r.dramUtil, r.nttUtil, r.mulAddUtil, r.autoUtil}) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0 + 1e-9);
    }
    EXPECT_GT(r.cycles, 0.0);
}

// --- Event-driven core vs the legacy rescan loop ------------------------

/** The event-driven issue core must reproduce the legacy loop exactly. */
void
expectEquivalent(const HardwareConfig &hw, const MachineProgram &mp)
{
    Simulator sim(hw);
    SimReport ev = sim.run(mp);
    SimReport ref = referenceSimulate(hw, mp);
    EXPECT_DOUBLE_EQ(ev.cycles, ref.cycles);
    EXPECT_DOUBLE_EQ(ev.dramBytes, ref.dramBytes);
    EXPECT_DOUBLE_EQ(ev.dramUtil, ref.dramUtil);
    EXPECT_DOUBLE_EQ(ev.nttUtil, ref.nttUtil);
    EXPECT_DOUBLE_EQ(ev.mulAddUtil, ref.mulAddUtil);
    EXPECT_DOUBLE_EQ(ev.autoUtil, ref.autoUtil);
    EXPECT_EQ(ev.instructions, ref.instructions);
}

TEST(SimulatorEquivalence, HandBuiltPrograms)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    const size_t n = size_t(1) << 16;
    expectEquivalent(hw, loadComputeStore(n * 8));

    MachineProgram fifo;
    fifo.residueBytes = n * 8;
    MachInst prod;
    prod.op = Opcode::MMUL;
    prod.setDest(Operand::stream(7));
    prod.setSrc0(Operand::regOp(0));
    prod.setSrc1(Operand::regOp(1));
    fifo.insts.push_back(prod);
    MachInst cons;
    cons.op = Opcode::MMAD;
    cons.setDest(Operand::regOp(2));
    cons.setSrc0(Operand::stream(7));
    cons.setSrc1(Operand::regOp(1));
    fifo.insts.push_back(cons);
    expectEquivalent(hw, fifo);

    MachineProgram macs;
    macs.residueBytes = n * 8;
    for (int i = 0; i < 8; ++i) {
        MachInst mi;
        mi.op = Opcode::MMAC;
        mi.setDest(Operand::regOp(8 + i));
        mi.setSrc0(Operand::regOp(0));
        mi.setSrc1(Operand::regOp(1));
        macs.insts.push_back(mi);
    }
    expectEquivalent(hw, macs);
    hw.nttMacReuse = false;
    expectEquivalent(hw, macs);
}

TEST(SimulatorEquivalence, CompiledBootstrapAcrossConfigs)
{
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 16;
    fhe.dnum = 4;
    Workload w = buildBootstrapping(fhe, {256, 2, 2});
    Compiler compiler;
    MachineProgram mp = compiler.compile(w.program);

    for (HardwareConfig hw :
         {HardwareConfig::asicEffact27(), HardwareConfig::asicEffact162(),
          HardwareConfig::fpgaEffact()})
        expectEquivalent(hw, mp);

    HardwareConfig inorder = HardwareConfig::asicEffact27();
    inorder.issueWindow = 1;
    expectEquivalent(inorder, mp);
    HardwareConfig wide = HardwareConfig::asicEffact27();
    wide.issueWindow = 4096; // wider than the program: no boundary
    expectEquivalent(wide, mp);
}

TEST(SimulatorEquivalence, TightSramSpillingProgram)
{
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 16;
    fhe.dnum = 4;
    Workload w = buildBootstrapping(fhe, {256, 2, 2});
    CompilerOptions tight;
    tight.sramBytes = size_t(2) << 20;
    Compiler compiler(tight);
    MachineProgram mp = compiler.compile(w.program);
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.sramBytes = tight.sramBytes;
    expectEquivalent(hw, mp);
}

TEST(Simulator, HbmFloorRefreshCoversEveryGroupAfterDualDramCommit)
{
    // A dual-DRAM-operand commit advances the HBM channel by *two*
    // residues, and every ready group whose issue floor covers the
    // channel — pure memory ops, per-class streaming fills, and the
    // steerable-MAC fill group — must observe the move before the next
    // issue round (the ROADMAP "batch HBM-floor refreshes" note). Four
    // independent instructions, one per group, issue in index order,
    // each queueing behind the full channel history.
    HardwareConfig hw = HardwareConfig::asicEffact27();
    const size_t n = size_t(1) << 16;
    MachineProgram mp;
    mp.residueBytes = n * 8;

    MachInst dual; // ADD-class with two DRAM-streamed sources
    dual.op = Opcode::MMAD;
    dual.setDest(Operand::regOp(2));
    dual.setSrc0(Operand::stream(0, /*from_dram=*/true));
    dual.setSrc1(Operand::stream(1, /*from_dram=*/true));
    mp.insts.push_back(dual);
    MachInst ld; // pure memory group
    ld.op = Opcode::LOAD_RES;
    ld.setDest(Operand::regOp(0));
    mp.insts.push_back(ld);
    MachInst fill; // MUL-class streaming-fill group
    fill.op = Opcode::MMUL;
    fill.setDest(Operand::regOp(3));
    fill.setSrc0(Operand::stream(2, /*from_dram=*/true));
    fill.setSrc1(Operand::regOp(1));
    mp.insts.push_back(fill);
    MachInst mac_fill; // steerable-MAC streaming-fill group
    mac_fill.op = Opcode::MMAC;
    mac_fill.setDest(Operand::regOp(4));
    mac_fill.setSrc0(Operand::stream(3, /*from_dram=*/true));
    mac_fill.setSrc1(Operand::regOp(1));
    mp.insts.push_back(mac_fill);

    const double mem = double(n * 8) / hw.hbmBytesPerCycle();
    SimReport r = Simulator(hw).run(mp);
    // Channel history: dual takes [0, 2*mem), then each fill/load takes
    // one more residue slot; the last (the MAC fill) runs [4*mem, 5*mem)
    // and its execution is stretched to the transfer.
    EXPECT_NEAR(r.cycles, 5 * mem + 16, 1e-6);
    EXPECT_DOUBLE_EQ(r.dramBytes, 5.0 * double(n * 8));
    expectEquivalent(hw, mp);
}

// --- Dependences resolved as instructions enter the window ---------------

/** Checks `mp` against the reference loop at windows 1, 2, 3 and 64. */
void
expectEquivalentAcrossWindows(const MachineProgram &mp)
{
    for (size_t window : {1, 2, 3, 64}) {
        SCOPED_TRACE("issueWindow " + std::to_string(window));
        HardwareConfig hw = HardwareConfig::asicEffact27();
        hw.issueWindow = window;
        expectEquivalent(hw, mp);
    }
}

TEST(SimulatorWindowEntry, RegisterReadByMoreInstructionsThanTheWindow)
{
    // One long NTT result read by 80 later instructions: readers that
    // enter after the NTT issued take its finish time at entry, the
    // others wait on wake-up entries.
    MachineProgram mp;
    mp.residueBytes = size_t(1) << 19;
    mp.insts.push_back(MachInst(Opcode::NTT, Operand::regOp(0),
                                Operand::regOp(200)));
    for (int k = 0; k < 80; ++k)
        mp.insts.push_back(MachInst(k % 2 ? Opcode::MMAD : Opcode::MMUL,
                                    Operand::regOp(1 + k),
                                    Operand::regOp(0),
                                    Operand::regOp(201)));
    expectEquivalentAcrossWindows(mp);
}

TEST(SimulatorWindowEntry, RegisterRewrittenWhileOldReadersWait)
{
    // r0's first writer waits on a slow NTT, so its three readers wait
    // too while an MMAD rewrites r0 (an anti edge on the first writer)
    // and three AUTOs read the new value. Independent MMADs take the
    // ADD units while the rewrite waits, and an NTT chain hangs off a
    // reader of the new value, so the rewrite's issue order shows in
    // the cycle count.
    MachineProgram mp;
    mp.residueBytes = size_t(1) << 19;
    mp.insts.push_back(MachInst(Opcode::NTT, Operand::regOp(20),
                                Operand::regOp(200)));
    mp.insts.push_back(MachInst(Opcode::NTT, Operand::regOp(0),
                                Operand::regOp(20)));
    for (int k = 0; k < 3; ++k)
        mp.insts.push_back(MachInst(Opcode::MMUL, Operand::regOp(10 + k),
                                    Operand::regOp(0), Operand::regOp(0)));
    mp.insts.push_back(MachInst(Opcode::MMAD, Operand::regOp(0),
                                Operand::regOp(202), Operand::regOp(203)));
    for (int k = 0; k < 3; ++k)
        mp.insts.push_back(MachInst(Opcode::AUTO, Operand::regOp(50 + k),
                                    Operand::regOp(0)));
    for (int k = 0; k < 12; ++k)
        mp.insts.push_back(MachInst(Opcode::MMAD, Operand::regOp(30 + k),
                                    Operand::regOp(204),
                                    Operand::regOp(205)));
    for (int k = 0; k < 3; ++k)
        mp.insts.push_back(MachInst(Opcode::NTT, Operand::regOp(61 + k),
                                    Operand::regOp(k ? 60 + k : 50)));
    expectEquivalentAcrossWindows(mp);
}

TEST(SimulatorWindowEntry, FifoProducerIssuedBeforeItsConsumerEnters)
{
    // The token's producer issues first; 70 independent instructions
    // then fill more than any tested window, so the consumer enters
    // after its producer issued and takes the finish time at entry. An
    // NTT chain after the consumer makes that time show in the cycle
    // count.
    MachineProgram mp;
    mp.residueBytes = size_t(1) << 19;
    mp.insts.push_back(MachInst(Opcode::MMUL, Operand::stream(7),
                                Operand::regOp(100), Operand::regOp(101)));
    for (int k = 0; k < 70; ++k)
        mp.insts.push_back(MachInst(Opcode::MMAD, Operand::regOp(k),
                                    Operand::regOp(102),
                                    Operand::regOp(103)));
    mp.insts.push_back(MachInst(Opcode::NTT, Operand::regOp(90),
                                Operand::stream(7)));
    for (int k = 0; k < 4; ++k)
        mp.insts.push_back(MachInst(Opcode::NTT, Operand::regOp(91 + k),
                                    Operand::regOp(90 + k)));
    expectEquivalentAcrossWindows(mp);
}

TEST(Simulator, InOrderWindowOneIsSlower)
{
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 15; // the {2, 2} budget's 14 levels, output at 1
    fhe.dnum = 2;
    Workload w = buildBootstrapping(fhe, {256, 2, 2});
    Compiler compiler;
    MachineProgram mp = compiler.compile(w.program);

    HardwareConfig ooo = HardwareConfig::asicEffact27();
    HardwareConfig inorder = ooo;
    inorder.issueWindow = 1;
    SimReport r_ooo = Simulator(ooo).run(mp);
    SimReport r_io = Simulator(inorder).run(mp);
    EXPECT_LE(r_ooo.cycles, r_io.cycles);
}

} // namespace
} // namespace effact
