#include "isa/isa.h"

#include <sstream>

#include "common/hash.h"
#include "common/logging.h"

namespace effact {

MachInst::MachInst(Opcode opcode, const Operand &dest, const Operand &src0,
                   const Operand &src1, const Operand &src2)
    : op(opcode)
{
    setDest(dest);
    setSrc0(src0);
    setSrc1(src1);
    setSrc2(src2);
}

void
MachInst::setOperand(int slot, const Operand &o)
{
    EFFACT_ASSERT(slot >= 0 && slot < kSlots, "operand slot %d", slot);
    uint32_t word = 0;
    switch (o.kind) {
      case OperandKind::None:
        EFFACT_ASSERT(o.reg == -1 && o.value == 0 && !o.dram,
                      "an empty operand carries no value");
        break;
      case OperandKind::Reg:
        EFFACT_ASSERT(o.value == 0 && !o.dram,
                      "a register operand carries only its id");
        word = static_cast<uint32_t>(o.reg);
        break;
      case OperandKind::Stream:
        EFFACT_ASSERT(o.reg == -1 && o.value <= UINT32_MAX,
                      "%s %llu does not fit a 32-bit operand slot",
                      o.dram ? "DRAM stream residue" : "FIFO token",
                      static_cast<unsigned long long>(o.value));
        word = static_cast<uint32_t>(o.value);
        break;
      case OperandKind::Imm:
        EFFACT_ASSERT(o.reg == -1 && !o.dram,
                      "an immediate operand carries only its value");
        // The immediate is the payload: on a memory op that is the HBM
        // address, which an Imm operand may read but not change.
        EFFACT_ASSERT(!isMemoryOp() || o.value == payload_,
                      "immediate %llu on %s would overwrite its HBM "
                      "address %llu",
                      static_cast<unsigned long long>(o.value),
                      opcodeName(op),
                      static_cast<unsigned long long>(payload_));
        payload_ = o.value;
        break;
    }
    kind_[slot] = o.kind;
    slot_[slot] = word;
    const uint8_t bit = static_cast<uint8_t>(1u << slot);
    dram_ = o.kind == OperandKind::Stream && o.dram ? dram_ | bit
                                                    : dram_ & ~bit;
}

void
MachInst::setImm(u64 v)
{
    EFFACT_ASSERT(!isMemoryOp() || v == 0,
                  "%s holds an HBM address, not immediate %llu",
                  opcodeName(op), static_cast<unsigned long long>(v));
    if (!isMemoryOp())
        payload_ = v;
}

void
MachInst::setHbmAddr(u64 addr)
{
    EFFACT_ASSERT(isMemoryOp() || addr == 0,
                  "%s holds an immediate, not HBM address %llu",
                  opcodeName(op), static_cast<unsigned long long>(addr));
    if (isMemoryOp())
        payload_ = addr;
}

uint64_t
fingerprint(const MachineProgram &prog)
{
    WordHash h;
    h.mix(prog.insts.size());
    h.mix(prog.numRegs);
    h.mix(prog.residueBytes);
    h.mix(prog.spillLoads);
    h.mix(prog.spillStores);
    h.mix(prog.streamedOps);
    WordHash words[MachInst::kPackedWords];
    for (const MachInst &mi : prog.insts) {
        const std::array<u64, MachInst::kPackedWords> w = mi.packedWords();
        for (int k = 0; k < MachInst::kPackedWords; ++k)
            words[k].mix(w[k]);
    }
    for (const WordHash &acc : words)
        h.mix(acc.finish());
    return h.finish();
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::MMUL: return "MMUL";
      case Opcode::MMAD: return "MMAD";
      case Opcode::MSUB: return "MSUB";
      case Opcode::MMAC: return "MMAC";
      case Opcode::NTT: return "NTT";
      case Opcode::INTT: return "INTT";
      case Opcode::AUTO: return "AUTO";
      case Opcode::LOAD_RES: return "LoadRes";
      case Opcode::STORE_RES: return "StoreRes";
      case Opcode::VEC_COPY: return "VecCopy";
    }
    panic("unknown opcode %d", static_cast<int>(op));
}

namespace {

std::string
operandStr(const Operand &o)
{
    switch (o.kind) {
      case OperandKind::None:
        return "-";
      case OperandKind::Reg:
        return "r" + std::to_string(o.reg);
      case OperandKind::Stream:
        return (o.dram ? "dram" : "fifo") + std::to_string(o.value);
      case OperandKind::Imm:
        return "#" + std::to_string(o.value);
    }
    return "?";
}

} // namespace

std::string
disassemble(const MachInst &inst)
{
    std::ostringstream os;
    os << opcodeName(inst.op) << " " << operandStr(inst.dest());
    if (inst.src0().kind != OperandKind::None)
        os << ", " << operandStr(inst.src0());
    if (inst.src1().kind != OperandKind::None)
        os << ", " << operandStr(inst.src1());
    if (inst.src2().kind != OperandKind::None)
        os << ", acc " << operandStr(inst.src2());
    os << " [q" << inst.modulus << "]";
    if (inst.op == Opcode::AUTO)
        os << " elt=" << inst.imm();
    if (inst.isMemoryOp())
        os << " @0x" << std::hex << inst.hbmAddr() << std::dec;
    return os.str();
}

std::string
disassemble(const MachineProgram &prog, size_t limit)
{
    std::ostringstream os;
    size_t count = limit == 0 ? prog.insts.size()
                              : std::min(limit, prog.insts.size());
    for (size_t i = 0; i < count; ++i)
        os << i << ": " << disassemble(prog.insts[i]) << "\n";
    if (count < prog.insts.size())
        os << "... (" << (prog.insts.size() - count) << " more)\n";
    return os.str();
}

} // namespace effact
