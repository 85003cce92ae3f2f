#include "isa/isa.h"

#include <sstream>

#include "common/hash.h"
#include "common/logging.h"

namespace effact {

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
    for (const MachInst &mi : prog.insts) {
        h.mix(static_cast<u64>(mi.op));
        for (const Operand *o : {&mi.dest, &mi.src0, &mi.src1, &mi.src2}) {
            h.mix(static_cast<u64>(o->kind));
            h.mix(static_cast<u64>(static_cast<int64_t>(o->reg)));
            h.mix(o->value);
            h.mix(o->dram ? 1 : 0);
        }
        h.mix(mi.modulus);
        h.mix(mi.imm);
        h.mix(mi.hbmAddr);
        h.mix(static_cast<u64>(static_cast<int64_t>(mi.irId)));
    }
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
        return "fifo" + std::to_string(o.value);
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
    os << opcodeName(inst.op) << " " << operandStr(inst.dest);
    if (inst.src0.kind != OperandKind::None)
        os << ", " << operandStr(inst.src0);
    if (inst.src1.kind != OperandKind::None)
        os << ", " << operandStr(inst.src1);
    if (inst.src2.kind != OperandKind::None)
        os << ", acc " << operandStr(inst.src2);
    os << " [q" << inst.modulus << "]";
    if (inst.op == Opcode::AUTO)
        os << " elt=" << inst.imm;
    if (inst.op == Opcode::LOAD_RES || inst.op == Opcode::STORE_RES)
        os << " @0x" << std::hex << inst.hbmAddr << std::dec;
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
