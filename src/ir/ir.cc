#include "ir/ir.h"

#include <map>

#include "common/hash.h"
#include "common/logging.h"

namespace effact {

int
IrProgram::addObject(std::string obj_name, int residues, bool read_only)
{
    objects.push_back({std::move(obj_name), residues, read_only});
    bumpVersion();
    return static_cast<int>(objects.size()) - 1;
}

int
IrProgram::emit(IrInst inst)
{
    insts.push_back(inst);
    bumpVersion();
    return static_cast<int>(insts.size()) - 1;
}

size_t
IrProgram::liveCount() const
{
    size_t n = 0;
    for (const auto &inst : insts)
        n += inst.dead ? 0 : 1;
    return n;
}

void
IrProgram::compact()
{
    const size_t live = liveCount();
    if (live == insts.size()) {
        // Nothing dead: ids (and cached analyses) stay valid, and only
        // the builder's spare capacity goes.
        insts.shrink_to_fit();
        return;
    }
    std::vector<int> remap(insts.size(), -1);
    std::vector<IrInst> kept;
    kept.reserve(live); // exact: the back end keeps this buffer to the end
    for (size_t i = 0; i < insts.size(); ++i) {
        if (insts[i].dead)
            continue;
        remap[i] = static_cast<int>(kept.size());
        kept.push_back(insts[i]);
    }
    for (auto &inst : kept) {
        for (int *operand : inst.operandSlots()) {
            if (*operand >= 0) {
                EFFACT_ASSERT(remap[*operand] >= 0,
                              "live instruction uses dead value %d",
                              *operand);
                *operand = remap[*operand];
            }
        }
    }
    insts = std::move(kept);
    bumpVersion();
}

const char *
irOpName(IrOp op)
{
    switch (op) {
      case IrOp::Load: return "Load";
      case IrOp::Store: return "Store";
      case IrOp::Mul: return "Mul";
      case IrOp::Add: return "Add";
      case IrOp::Sub: return "Sub";
      case IrOp::Mac: return "Mac";
      case IrOp::Ntt: return "Ntt";
      case IrOp::Intt: return "Intt";
      case IrOp::Auto: return "Auto";
      case IrOp::Copy: return "Copy";
    }
    panic("unknown IrOp %d", static_cast<int>(op));
}

std::string
display(const IrInst &inst)
{
    std::string s = irOpName(inst.op);
    if (inst.a >= 0)
        s += " v" + std::to_string(inst.a);
    if (inst.useImm)
        s += ", #" + std::to_string(inst.imm);
    else if (inst.b >= 0)
        s += ", v" + std::to_string(inst.b);
    if (inst.c >= 0)
        s += ", acc v" + std::to_string(inst.c);
    if (inst.mem.object >= 0)
        s += ", obj" + std::to_string(inst.mem.object) + "[" +
             std::to_string(inst.mem.index) + "]";
    s += " [q" + std::to_string(inst.modulus) + "]";
    if (inst.dead)
        s += " (dead)";
    return s;
}

std::string
mixKey(const IrInst &inst)
{
    switch (inst.op) {
      case IrOp::Mul:
        return inst.tag == IrTag::BConv ? "BC_MULT" : "MULT";
      case IrOp::Mac:
        return inst.tag == IrTag::BConv ? "BC_MAC" : "MAC";
      case IrOp::Add:
      case IrOp::Sub:
        return inst.tag == IrTag::BConv ? "BC_ADD" : "ADD";
      case IrOp::Ntt:
      case IrOp::Intt:
        return "NTT";
      case IrOp::Auto:
        return "AUTO";
      case IrOp::Load:
        return "LOAD";
      case IrOp::Store:
        return "STORE";
      case IrOp::Copy:
        return "COPY";
    }
    return "OTHER";
}

StatSet
IrProgram::opMix() const
{
    StatSet mix;
    for (const auto &inst : insts) {
        if (!inst.dead)
            mix.add(mixKey(inst), 1);
    }
    return mix;
}

uint64_t
fingerprint(const IrProgram &prog)
{
    WordHash h;
    h.mix(prog.degree);
    h.mix(prog.objects.size());
    for (const MemObject &obj : prog.objects) {
        h.mix(static_cast<u64>(static_cast<int64_t>(obj.residues)));
        h.mix(obj.readOnly ? 1 : 0);
    }
    h.mix(prog.insts.size());
    // Two 32-bit fields in one word, each in its own half.
    auto pair = [](auto lo, auto hi) {
        return u64(static_cast<uint32_t>(lo)) |
               u64(static_cast<uint32_t>(hi)) << 32;
    };
    WordHash words[5];
    for (const IrInst &inst : prog.insts) {
        words[0].mix(inst.imm);
        words[1].mix(pair(inst.a, inst.b));
        words[2].mix(pair(inst.c, inst.modulus));
        words[3].mix(pair(inst.mem.object, inst.mem.index));
        words[4].mix(u64(inst.op) | u64(inst.useImm) << 8 |
                     u64(inst.tag) << 16 | u64(inst.dead) << 24);
    }
    for (const WordHash &acc : words)
        h.mix(acc.finish());
    return h.finish();
}

size_t
IrProgram::readOnlyBytes() const
{
    size_t bytes = 0;
    for (const auto &obj : objects) {
        if (obj.readOnly)
            bytes += static_cast<size_t>(obj.residues) * degree * 8;
    }
    return bytes;
}

} // namespace effact
