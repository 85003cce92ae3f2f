/**
 * @file
 * Post-backend well-formedness checks for `MachineProgram` (the
 * `mach.*` rules in verify.h). One forward walk over the instruction
 * stream tracks which SRAM registers have been written and which FIFO
 * tokens have a producer, so register reads through reuse chains and
 * FU-to-FU forwards are checked in issue order — exactly the order the
 * scoreboard consumes them.
 */
#include "verify/verify.h"

#include <algorithm>
#include <climits>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace effact {

namespace {

void
report(VerifyReport &out, const char *rule, int inst, std::string msg)
{
    out.findings.push_back({rule, inst, std::move(msg)});
}

/** "dest"/"src0"/"src1"/"src2" for diagnostics. */
const char *
slotName(int slot)
{
    switch (slot) {
      case 0: return "dest";
      case 1: return "src0";
      case 2: return "src1";
      default: return "src2";
    }
}

} // namespace

VerifyReport
verifyMachine(const MachineProgram &prog, const MachVerifyBudget &budget)
{
    VerifyReport rep;

    if (!prog.insts.empty() &&
        (prog.numRegs == 0 || prog.residueBytes == 0))
        report(rep, "mach.program.meta", -1,
               "non-empty program with numRegs=" +
                   std::to_string(prog.numRegs) + " residueBytes=" +
                   std::to_string(prog.residueBytes));

    // The allocator reserves a clamped scratch pool at the top of the
    // register file (regalloc.cc); 0 means "not produced by the
    // allocator" (hand-built test programs) and skips the rule.
    if (prog.scratchRegs != 0 &&
        (prog.scratchRegs > kMaxScratchRegs ||
         prog.scratchRegs >= prog.numRegs))
        report(rep, "mach.scratch.pool", -1,
               "scratch pool of " + std::to_string(prog.scratchRegs) +
                   " registers outside [1, " +
                   std::to_string(kMaxScratchRegs) + "] (numRegs=" +
                   std::to_string(prog.numRegs) + ")");

    // Register-file/SRAM consistency with the configured hardware: the
    // backend sizes the file as max(sramBytes/residueBytes, 8).
    if (budget.sramBytes != 0 && prog.residueBytes != 0) {
        const size_t cap = std::max<size_t>(
            budget.sramBytes / prog.residueBytes, 8);
        if (prog.numRegs > cap)
            report(rep, "mach.sram.budget", -1,
                   std::to_string(prog.numRegs) + " registers x " +
                       std::to_string(prog.residueBytes) +
                       " bytes exceeds the " +
                       std::to_string(budget.sramBytes) +
                       "-byte SRAM budget");
    }
    rep.checksRun += 3;

    std::vector<uint8_t> written(prog.numRegs, 0);
    std::unordered_set<u64> fifo_live; // produced, not yet consumed
    // Per-HBM-address issue history for the memory-ordering rule: the
    // alias pass orders every store-involving pair of same-location
    // accesses by IR value id, and the scheduler must preserve those
    // edges — so in issue order, a store must not follow any access
    // with a greater irId at its address, and a load must not follow a
    // store with a greater irId. Equal ids are one value's own spill
    // store/reload traffic. Loads reorder freely among themselves, and
    // instructions without IR provenance (irId < 0, hand-built
    // programs) are exempt. DRAM-stream operands are not covered —
    // only explicit LOAD_RES/STORE_RES.
    struct AddrHistory
    {
        int maxSeenIr = INT_MIN;   ///< any access at this address
        int lastStoreIr = INT_MIN; ///< most recent store's irId
    };
    std::unordered_map<u64, AddrHistory> mem_history;
    const int n = static_cast<int>(prog.insts.size());
    for (int i = 0; i < n; ++i) {
        const MachInst &mi = prog.insts[i];
        rep.checksRun += 8;
        auto who = [&] { return disassemble(mi); };

        // Register ids in range for every Reg operand (the PR 4
        // "register -1" class lands here).
        const Operand slots[MachInst::kSlots] = {mi.dest(), mi.src0(),
                                                 mi.src1(), mi.src2()};
        const Operand &dest = slots[MachInst::kDest];
        const Operand &src0 = slots[MachInst::kSrc0];
        const Operand &src1 = slots[MachInst::kSrc1];
        const Operand &src2 = slots[MachInst::kSrc2];
        for (int s = 0; s < MachInst::kSlots; ++s) {
            const Operand &o = slots[s];
            if (o.kind == OperandKind::Reg &&
                (o.reg < 0 ||
                 o.reg >= static_cast<int>(prog.numRegs)))
                report(rep, "mach.reg.bounds", i,
                       std::string(slotName(s)) + " register " +
                           std::to_string(o.reg) + " outside [0, " +
                           std::to_string(prog.numRegs) + ") in " +
                           who());
        }

        // Destination shape. Stores define nothing; everything else
        // writes a register or a (FU-fed) FIFO token.
        if (mi.op == Opcode::STORE_RES) {
            if (dest.kind != OperandKind::None)
                report(rep, "mach.stream.dest", i,
                       "store carries a destination in " + who());
        } else {
            if (dest.kind == OperandKind::None)
                report(rep, "mach.stream.dest", i,
                       "missing destination in " + who());
            else if (dest.kind == OperandKind::Imm)
                report(rep, "mach.stream.dest", i,
                       "immediate destination in " + who());
            else if (dest.kind == OperandKind::Stream && dest.dram)
                report(rep, "mach.stream.dest", i,
                       "DRAM-stream destination in " + who());
        }

        // Per-opcode source shapes, matching what codegen can emit
        // (regalloc.cc): src0 is always a vector (register or stream),
        // never an immediate; src1 carries the immediate forms.
        const bool src0_vec = src0.kind == OperandKind::Reg ||
                              src0.kind == OperandKind::Stream;
        const bool src1_vec = src1.kind == OperandKind::Reg ||
                              src1.kind == OperandKind::Stream;
        switch (mi.op) {
          case Opcode::LOAD_RES:
            if (src0.kind != OperandKind::None ||
                src1.kind != OperandKind::None)
                report(rep, "mach.operand.shape", i,
                       "load takes no source operands in " + who());
            break;
          case Opcode::STORE_RES:
          case Opcode::VEC_COPY:
          case Opcode::NTT:
          case Opcode::INTT:
            if (!src0_vec)
                report(rep, "mach.operand.shape", i,
                       "src0 must be a register or stream in " + who());
            if (src1.kind != OperandKind::None)
                report(rep, "mach.operand.shape", i,
                       "unexpected src1 in " + who());
            break;
          case Opcode::AUTO:
            if (!src0_vec)
                report(rep, "mach.operand.shape", i,
                       "src0 must be a register or stream in " + who());
            if (src1.kind != OperandKind::None &&
                src1.kind != OperandKind::Imm)
                report(rep, "mach.operand.shape", i,
                       "src1 must be empty or the Galois immediate "
                       "in " +
                           who());
            break;
          case Opcode::MMUL:
          case Opcode::MMAD:
          case Opcode::MSUB:
          case Opcode::MMAC:
            if (!src0_vec)
                report(rep, "mach.operand.shape", i,
                       "src0 must be a register or stream in " + who());
            if (!src1_vec && src1.kind != OperandKind::Imm)
                report(rep, "mach.operand.shape", i,
                       "missing second source in " + who());
            break;
        }
        // src2 is the MMAC accumulator and nothing else: a vector
        // source (register or stream) there, None everywhere else. The
        // destination is always write-only.
        if (mi.op == Opcode::MMAC) {
            if (src2.kind != OperandKind::None &&
                src2.kind != OperandKind::Reg &&
                src2.kind != OperandKind::Stream)
                report(rep, "mach.operand.shape", i,
                       "MMAC accumulator must be a register or stream "
                       "in " +
                           who());
        } else if (src2.kind != OperandKind::None) {
            report(rep, "mach.operand.shape", i,
                   "src2 on a non-MMAC instruction in " + who());
        }

        // Reads happen before this instruction's write takes effect.
        for (int s = MachInst::kSrc0; s < MachInst::kSlots; ++s) {
            const Operand &o = slots[s];
            if (o.kind == OperandKind::Reg && o.reg >= 0 &&
                o.reg < static_cast<int>(prog.numRegs) &&
                !written[o.reg])
                report(rep, "mach.reg.uninit", i,
                       std::string(slotName(s)) + " reads r" +
                           std::to_string(o.reg) +
                           " before any write in " + who());
            if (o.kind == OperandKind::Stream && !o.dram &&
                fifo_live.find(o.value) == fifo_live.end())
                report(rep, "mach.stream.producer", i,
                       std::string(slotName(s)) + " consumes fifo" +
                           std::to_string(o.value) +
                           " with no producer in " + who());
            if (o.kind == OperandKind::Stream && !o.dram)
                fifo_live.erase(o.value); // FIFO tokens are one-shot
        }
        if (mi.writesDest()) {
            if (dest.kind == OperandKind::Reg && dest.reg >= 0 &&
                dest.reg < static_cast<int>(prog.numRegs))
                written[dest.reg] = 1;
            if (dest.kind == OperandKind::Stream && !dest.dram) {
                if (!fifo_live.insert(dest.value).second)
                    report(rep, "mach.stream.producer", i,
                           "fifo" + std::to_string(dest.value) +
                               " produced again before being consumed "
                               "in " +
                               who());
            }
        }

        // Explicit memory accesses: residue-aligned addresses (the
        // regalloc lays objects and spill slots out in whole-residue
        // units) and per-address issue order consistent with IR value
        // order (see `mem_history` above).
        if (mi.isMemoryOp()) {
            if (prog.residueBytes != 0 &&
                mi.hbmAddr() % prog.residueBytes != 0)
                report(rep, "mach.mem.align", i,
                       "HBM address " + std::to_string(mi.hbmAddr()) +
                           " not a multiple of residueBytes=" +
                           std::to_string(prog.residueBytes) + " in " +
                           who());
            if (mi.irId >= 0) {
                AddrHistory &h = mem_history[mi.hbmAddr()];
                if (mi.op == Opcode::STORE_RES) {
                    if (h.maxSeenIr > mi.irId)
                        report(rep, "mach.mem.order", i,
                               "store of v" + std::to_string(mi.irId) +
                                   " issued after an access of v" +
                                   std::to_string(h.maxSeenIr) +
                                   " at the same address in " + who());
                    h.lastStoreIr = std::max(h.lastStoreIr, mi.irId);
                } else if (h.lastStoreIr > mi.irId) {
                    report(rep, "mach.mem.order", i,
                           "load of v" + std::to_string(mi.irId) +
                               " issued after the store of v" +
                               std::to_string(h.lastStoreIr) +
                               " at the same address in " + who());
                }
                h.maxSeenIr = std::max(h.maxSeenIr, mi.irId);
            }
        }
    }
    return rep;
}

VerifyReport
verifyMachine(const MachineProgram &prog, const HardwareConfig &hw)
{
    MachVerifyBudget budget;
    budget.sramBytes = hw.sramBytes;
    return verifyMachine(prog, budget);
}

void
panicMalformedMachine(const MachineProgram &prog, int inst,
                      const char *what)
{
    VerifyReport rep = verifyMachine(prog);
    std::string culprit =
        inst >= 0 && inst < static_cast<int>(prog.insts.size())
            ? std::to_string(inst) + ": " + disassemble(prog.insts[inst])
            : std::string("<program>");
    panic("%s\n  at %s\n  verifier: %zu finding(s)\n%s", what,
          culprit.c_str(), rep.findings.size(),
          rep.toString().c_str());
}

} // namespace effact
