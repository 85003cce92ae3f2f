#include "compiler/pass.h"

namespace effact {

size_t
runConstProp(IrProgram &prog, StatSet &stats)
{
    // Identity folding on immediates: x*1 -> x, x+0 -> x, and chained
    // immediate multiplies combined into a single constant (the real
    // compiler folds mod-q; the structural IR combines the raw values,
    // which is equivalent for instruction counting).
    std::vector<int> fwd(prog.insts.size());
    for (size_t i = 0; i < fwd.size(); ++i)
        fwd[i] = static_cast<int>(i);
    auto resolve = [&](int v) {
        while (v >= 0 && fwd[v] != v)
            v = fwd[v];
        return v;
    };

    size_t folded = 0;
    size_t chained = 0;
    for (size_t i = 0; i < prog.insts.size(); ++i) {
        IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int *slot : inst.operandSlots())
            if (*slot >= 0)
                *slot = resolve(*slot);
        if (!inst.useImm)
            continue;
        if (inst.op == IrOp::Mul && inst.imm == 1) {
            fwd[i] = inst.a;
            prog.kill(inst);
            ++folded;
        } else if ((inst.op == IrOp::Add || inst.op == IrOp::Sub) &&
                   inst.imm == 0) {
            fwd[i] = inst.a;
            prog.kill(inst);
            ++folded;
        } else if (inst.op == IrOp::Mul && inst.a >= 0) {
            // Mul(imm c2) of Mul(imm c1) with a single consumer chain:
            // combine into one multiply when the inner result is only
            // used here.
            IrInst &src = prog.insts[inst.a];
            if (!src.dead && src.op == IrOp::Mul && src.useImm &&
                src.modulus == inst.modulus) {
                // Count inner uses.
                // (cheap scan is avoided: rely on the fact that chained
                //  immediates in our lowering are single-use; a wrong
                //  guess only duplicates a multiply, never miscomputes)
                inst.imm = inst.imm * src.imm; // structural fold
                inst.a = src.a;
                ++chained;
            }
        }
    }
    stats.add("constProp.identityFolded", double(folded));
    stats.add("constProp.immChained", double(chained));
    return folded + chained;
}

} // namespace effact
