#include "compiler/pass.h"

namespace effact {

size_t
runCopyProp(IrProgram &prog, StatSet &stats)
{
    // Union-find style forwarding: a Copy's value is its source's value.
    std::vector<int> fwd(prog.insts.size());
    for (size_t i = 0; i < fwd.size(); ++i)
        fwd[i] = static_cast<int>(i);

    auto resolve = [&](int v) {
        while (v >= 0 && fwd[v] != v)
            v = fwd[v];
        return v;
    };

    size_t removed = 0;
    for (size_t i = 0; i < prog.insts.size(); ++i) {
        IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int *slot : inst.operandSlots())
            if (*slot >= 0)
                *slot = resolve(*slot);
        if (inst.op == IrOp::Copy) {
            fwd[i] = inst.a;
            prog.kill(inst);
            ++removed;
        }
    }
    stats.add("copyProp.removed", double(removed));
    return removed;
}

} // namespace effact
