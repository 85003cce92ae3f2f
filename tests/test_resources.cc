/**
 * @file
 * ResourceModel tests, in isolation from issue-order policy: decode
 * shapes, serial latency arithmetic, HBM channel serialization and
 * dual-DRAM-operand accounting, MAC-on-NTT steering, and streaming
 * fill overlap.
 */
#include <gtest/gtest.h>

#include "sim/resources.h"

namespace effact {
namespace {

constexpr size_t kResidueBytes = (size_t(1) << 16) * 8;

TEST(ResourceModel, DecodeShapes)
{
    ResourceModel res(HardwareConfig::asicEffact27(), kResidueBytes);

    InstShape ld = res.decode(MachInst(Opcode::LOAD_RES, Operand::regOp(0)));
    EXPECT_EQ(ld.fu_class, -1);

    InstShape ntt = res.decode(
        MachInst(Opcode::NTT, Operand::regOp(1), Operand::regOp(0)));
    EXPECT_EQ(ntt.fu_class, FU_NTT);
    EXPECT_DOUBLE_EQ(ntt.occupancy, res.nttCycles());

    InstShape mac = res.decode(MachInst(Opcode::MMAC, Operand::regOp(2),
                                        Operand::regOp(0), Operand::regOp(1)));
    EXPECT_EQ(mac.fu_class, FU_MUL);
    EXPECT_TRUE(mac.mac);
    EXPECT_DOUBLE_EQ(mac.occupancy, res.ewCycles());

    InstShape fill = res.decode(
        MachInst(Opcode::MMUL, Operand::regOp(2),
                 Operand::stream(0, /*from_dram=*/true), Operand::regOp(1)));
    EXPECT_TRUE(fill.stream_fill);
    EXPECT_EQ(fill.extra_dram, 0);

    InstShape dual = res.decode(
        MachInst(Opcode::MMUL, Operand::regOp(2),
                 Operand::stream(0, /*from_dram=*/true),
                 Operand::stream(1, /*from_dram=*/true)));
    EXPECT_EQ(dual.extra_dram, 1);

    // A MMAC can stream all three sources from DRAM.
    const MachInst tri(Opcode::MMAC, Operand::regOp(2),
                       Operand::stream(0, /*from_dram=*/true),
                       Operand::stream(1, /*from_dram=*/true),
                       Operand::stream(2, /*from_dram=*/true));
    InstShape three = res.decode(tri);
    EXPECT_TRUE(three.stream_fill);
    EXPECT_EQ(three.extra_dram, 2);
}

TEST(ResourceModel, ModelConstantsMatchConfig)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    ResourceModel res(hw, kResidueBytes);
    const size_t n = kResidueBytes / 8;
    EXPECT_DOUBLE_EQ(res.ewCycles(), double(n) / double(hw.lanes));
    EXPECT_DOUBLE_EQ(res.nttCycles(),
                     double(n) * 16 / 2.0 / double(hw.lanes));
    EXPECT_DOUBLE_EQ(res.memCycles(),
                     double(kResidueBytes) / hw.hbmBytesPerCycle());
}

TEST(ResourceModel, MemoryOpsSerializeOnHbmChannel)
{
    ResourceModel res(HardwareConfig::asicEffact27(), kResidueBytes);
    InstShape ld = res.decode(MachInst(Opcode::LOAD_RES, Operand::regOp(0)));

    IssuePlan p1 = res.plan(ld, 0.0);
    EXPECT_DOUBLE_EQ(p1.start, 0.0);
    EXPECT_TRUE(p1.uses_dram);
    double f1 = res.commit(ld, p1);
    EXPECT_DOUBLE_EQ(f1, res.memCycles() + ResourceModel::kStartupCycles);
    EXPECT_DOUBLE_EQ(res.dramBytes(), double(kResidueBytes));

    // The second load waits for the channel even with ready operands.
    IssuePlan p2 = res.plan(ld, 0.0);
    EXPECT_DOUBLE_EQ(p2.start, res.memCycles());
    res.commit(ld, p2);
    EXPECT_DOUBLE_EQ(res.dramBytes(), 2.0 * double(kResidueBytes));
    EXPECT_DOUBLE_EQ(res.hbmBusy(), 2.0 * res.memCycles());
}

TEST(ResourceModel, ComputePicksEarliestFreeUnit)
{
    HardwareConfig hw = HardwareConfig::asicEffact27(); // 2 mul units
    ResourceModel res(hw, kResidueBytes);
    InstShape mul = res.decode(MachInst(Opcode::MMUL, Operand::regOp(2),
                                        Operand::regOp(0), Operand::regOp(1)));

    IssuePlan p1 = res.plan(mul, 0.0);
    res.commit(mul, p1);
    IssuePlan p2 = res.plan(mul, 0.0);
    EXPECT_NE(p2.fu_inst, p1.fu_inst); // second unit still free
    EXPECT_DOUBLE_EQ(p2.start, 0.0);
    res.commit(mul, p2);
    IssuePlan p3 = res.plan(mul, 0.0); // both busy: waits for one
    EXPECT_DOUBLE_EQ(p3.start, res.ewCycles());
    // Operand readiness dominates when later than the unit.
    IssuePlan p4 = res.plan(mul, 10.0 * res.ewCycles());
    EXPECT_DOUBLE_EQ(p4.start, 10.0 * res.ewCycles());
}

TEST(ResourceModel, MacSteersToIdleNttUnits)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    ResourceModel res(hw, kResidueBytes);
    InstShape mul = res.decode(MachInst(Opcode::MMUL, Operand::regOp(2),
                                        Operand::regOp(0), Operand::regOp(1)));
    InstShape mac = res.decode(MachInst(Opcode::MMAC, Operand::regOp(3),
                                        Operand::regOp(0), Operand::regOp(1)));

    // Fill both MUL units; the MAC then runs on an idle NTT unit.
    res.commit(mul, res.plan(mul, 0.0));
    res.commit(mul, res.plan(mul, 0.0));
    IssuePlan p = res.plan(mac, 0.0);
    EXPECT_EQ(p.fu_class, FU_NTT);
    EXPECT_DOUBLE_EQ(p.start, 0.0);

    // With reuse disabled the MAC serializes on the MUL units.
    hw.nttMacReuse = false;
    ResourceModel res2(hw, kResidueBytes);
    res2.commit(mul, res2.plan(mul, 0.0));
    res2.commit(mul, res2.plan(mul, 0.0));
    IssuePlan q = res2.plan(mac, 0.0);
    EXPECT_EQ(q.fu_class, FU_MUL);
    EXPECT_DOUBLE_EQ(q.start, res2.ewCycles());
}

TEST(ResourceModel, StreamingFillOverlapsComputeWithTransfer)
{
    ResourceModel res(HardwareConfig::asicEffact27(), kResidueBytes);
    InstShape fill = res.decode(
        MachInst(Opcode::MMUL, Operand::regOp(2),
                 Operand::stream(0, /*from_dram=*/true), Operand::regOp(1)));

    IssuePlan p = res.plan(fill, 0.0);
    EXPECT_EQ(p.fu_class, FU_MUL);
    EXPECT_TRUE(p.uses_dram);
    // Execution is stretched to cover the fill (consumed on arrival).
    EXPECT_DOUBLE_EQ(p.occupancy,
                     std::max(res.ewCycles(), res.memCycles()));
    res.commit(fill, p);
    EXPECT_DOUBLE_EQ(res.dramBytes(), double(kResidueBytes));
    // The fill occupied the channel: a later fill waits for it.
    IssuePlan p2 = res.plan(fill, 0.0);
    EXPECT_DOUBLE_EQ(p2.start, res.memCycles());
}

TEST(ResourceModel, DualDramOperandsMoveTwoResidues)
{
    ResourceModel res(HardwareConfig::asicEffact27(), kResidueBytes);
    InstShape dual = res.decode(
        MachInst(Opcode::MMAD, Operand::regOp(2),
                 Operand::stream(0, /*from_dram=*/true),
                 Operand::stream(1, /*from_dram=*/true)));

    res.commit(dual, res.plan(dual, 0.0));
    EXPECT_DOUBLE_EQ(res.dramBytes(), 2.0 * double(kResidueBytes));
    EXPECT_DOUBLE_EQ(res.hbmBusy(), 2.0 * res.memCycles());
    EXPECT_DOUBLE_EQ(res.hbmFree(), 2.0 * res.memCycles());
}

TEST(ResourceModel, ZeroLengthStreamingFillIsFreeAndMonotone)
{
    // Degenerate residue size: a streaming fill of zero bytes must cost
    // zero HBM cycles, move zero traffic, and never move the channel's
    // free time backwards (commit writes `start + dram_cycles`, which
    // with dram_cycles = 0 must equal the already-reached floor).
    ResourceModel res(HardwareConfig::asicEffact27(), 0);
    EXPECT_DOUBLE_EQ(res.memCycles(), 0.0);
    EXPECT_DOUBLE_EQ(res.ewCycles(), 0.0);
    EXPECT_DOUBLE_EQ(res.nttCycles(), 0.0);

    InstShape fill = res.decode(
        MachInst(Opcode::MMUL, Operand::regOp(2),
                 Operand::stream(0, /*from_dram=*/true), Operand::regOp(1)));
    ASSERT_TRUE(fill.stream_fill);
    IssuePlan p = res.plan(fill, 5.0);
    EXPECT_DOUBLE_EQ(p.start, 5.0);
    EXPECT_DOUBLE_EQ(p.occupancy, 0.0);
    res.commit(fill, p);
    EXPECT_DOUBLE_EQ(res.dramBytes(), 0.0);
    EXPECT_DOUBLE_EQ(res.hbmFree(), 5.0);
    EXPECT_DOUBLE_EQ(res.hbmBusy(), 0.0);

    // A second fill planned at an *earlier* data-ready time still
    // starts at the channel floor, not before it.
    IssuePlan p2 = res.plan(fill, 0.0);
    EXPECT_DOUBLE_EQ(p2.start, 5.0);
    res.commit(fill, p2);
    EXPECT_DOUBLE_EQ(res.hbmFree(), 5.0);
}

TEST(ResourceModel, DualDramBackToBackSaturatesTheChannel)
{
    // Dual-DRAM-operand instructions move two residues per issue; a
    // back-to-back train therefore advances the channel by 2x
    // memCycles each and keeps it saturated: busy == free at every
    // step (no idle gaps), and the k-th op starts at 2k * memCycles.
    ResourceModel res(HardwareConfig::asicEffact27(), kResidueBytes);
    InstShape dual = res.decode(
        MachInst(Opcode::MMAD, Operand::regOp(2),
                 Operand::stream(0, /*from_dram=*/true),
                 Operand::stream(1, /*from_dram=*/true)));
    const double mem = res.memCycles();
    for (int k = 0; k < 5; ++k) {
        IssuePlan p = res.plan(dual, 0.0);
        EXPECT_DOUBLE_EQ(p.start, 2.0 * k * mem) << "op " << k;
        res.commit(dual, p);
        EXPECT_DOUBLE_EQ(res.hbmFree(), 2.0 * (k + 1) * mem) << "op " << k;
        EXPECT_DOUBLE_EQ(res.hbmBusy(), res.hbmFree()) << "op " << k;
    }
    EXPECT_DOUBLE_EQ(res.dramBytes(), 10.0 * double(kResidueBytes));

    // A load arriving into the saturated channel queues behind the
    // whole train (both residues of every dual op).
    InstShape ld = res.decode(MachInst(Opcode::LOAD_RES, Operand::regOp(0)));
    EXPECT_DOUBLE_EQ(res.plan(ld, 0.0).start, 10.0 * mem);
}

TEST(ResourceModel, DualDramSecondResidueQueuesBehindCommit)
{
    // The second residue of a dual-DRAM op is accounted *after* the
    // plan's channel slot: hbmFree advances by dram_cycles at commit
    // and then by another memCycles. A single-source fill planned
    // right after must therefore see the 2x floor, not 1x — this is
    // the contention-at-capacity case the stock workloads (which
    // stream at most one DRAM operand per instruction in practice)
    // never hit.
    ResourceModel res(HardwareConfig::asicEffact27(), kResidueBytes);
    InstShape dual = res.decode(
        MachInst(Opcode::MMUL, Operand::regOp(2),
                 Operand::stream(0, /*from_dram=*/true),
                 Operand::stream(1, /*from_dram=*/true)));
    InstShape fill = res.decode(
        MachInst(Opcode::MMUL, Operand::regOp(3),
                 Operand::stream(2, /*from_dram=*/true), Operand::regOp(1)));
    res.commit(dual, res.plan(dual, 0.0));
    IssuePlan p = res.plan(fill, 0.0);
    EXPECT_DOUBLE_EQ(p.start, 2.0 * res.memCycles());
}

TEST(ResourceModel, BusyCountersAccrue)
{
    ResourceModel res(HardwareConfig::asicEffact27(), kResidueBytes);
    InstShape ntt = res.decode(
        MachInst(Opcode::NTT, Operand::regOp(1), Operand::regOp(0)));
    InstShape add = res.decode(MachInst(Opcode::MMAD, Operand::regOp(2),
                                        Operand::regOp(0), Operand::regOp(1)));
    res.commit(ntt, res.plan(ntt, 0.0));
    res.commit(add, res.plan(add, 0.0));
    res.commit(add, res.plan(add, 0.0));
    EXPECT_DOUBLE_EQ(res.busy(FU_NTT), res.nttCycles());
    EXPECT_DOUBLE_EQ(res.busy(FU_ADD), 2.0 * res.ewCycles());
    EXPECT_DOUBLE_EQ(res.busy(FU_MUL), 0.0);
    EXPECT_DOUBLE_EQ(res.dramBytes(), 0.0);
}

} // namespace
} // namespace effact
