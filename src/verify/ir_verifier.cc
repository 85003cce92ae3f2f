/**
 * @file
 * SSA well-formedness checks for `IrProgram` (the `ir.*` rules in
 * verify.h). The verifier walks the instruction stream once in value-id
 * order and applies every rule to every live instruction; dead
 * instructions are skipped entirely because passes mark values dead in
 * place and deliberately leave stale operands behind (`compact()` is
 * what renumbers).
 */
#include "verify/verify.h"

#include <algorithm>

#include "common/env.h"
#include "common/logging.h"

namespace effact {

namespace {

/** Per-opcode operand conventions, as produced by `IrBuilder` and the
 *  passes (see builder.cc / peephole.cc): which slots must be present,
 *  which must stay empty, and whether `useImm` can stand in for `b`. */
struct IrShape
{
    bool needsA = false;    ///< `a` must name a value
    bool usesB = false;     ///< second operand (`b` xor `imm`) required
    bool needsC = false;    ///< Mac accumulator required
    bool allowsImm = false; ///< `useImm` legal for this opcode
    bool isMem = false;     ///< carries a MemRef (Load/Store)
};

IrShape
shapeOf(IrOp op)
{
    switch (op) {
      case IrOp::Load:
        return {false, false, false, false, true};
      case IrOp::Store:
        return {true, false, false, false, true};
      case IrOp::Mul:
      case IrOp::Add:
      case IrOp::Sub:
        return {true, true, false, true, false};
      case IrOp::Mac:
        return {true, true, true, true, false};
      case IrOp::Ntt:
      case IrOp::Intt:
      case IrOp::Copy:
        return {true, false, false, false, false};
      case IrOp::Auto:
        // The Galois element rides in `imm` with `useImm` set
        // (builder.cc automorph); there is never a vector `b`.
        return {true, false, false, true, false};
    }
    return {};
}

void
report(VerifyReport &out, const char *rule, int inst, std::string msg)
{
    out.findings.push_back({rule, inst, std::move(msg)});
}

bool
isPow2(size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

std::string
VerifyReport::toString(size_t limit) const
{
    std::string s;
    size_t count = limit == 0 ? findings.size()
                              : std::min(limit, findings.size());
    for (size_t i = 0; i < count; ++i) {
        const VerifyFinding &f = findings[i];
        s += f.rule;
        if (f.inst >= 0)
            s += " @" + std::to_string(f.inst);
        s += ": " + f.message + "\n";
    }
    if (count < findings.size())
        s += "... (" + std::to_string(findings.size() - count) +
             " more findings)\n";
    return s;
}

void
enforceVerified(const VerifyReport &rep, const char *context)
{
    if (rep.ok())
        return;
    panic("%s produced a malformed program: %zu finding(s)\n%s", context,
          rep.findings.size(), rep.toString().c_str());
}

int
defaultVerifyLevel()
{
    // Every level above 1 verifies as 1 does; the clamp also keeps a
    // huge count from wrapping in the `int`.
    static const int level =
        int(std::min<size_t>(envSize("EFFACT_VERIFY", 0, /*min=*/0), 1));
    return level;
}

VerifyReport
verifyIr(const IrProgram &prog)
{
    VerifyReport rep;

    if (!isPow2(prog.degree))
        report(rep, "ir.degree.pow2", -1,
               "ring degree " + std::to_string(prog.degree) +
                   " is not a nonzero power of two");
    for (size_t o = 0; o < prog.objects.size(); ++o) {
        if (prog.objects[o].residues <= 0)
            report(rep, "ir.object.shape", -1,
                   "object " + std::to_string(o) + " ('" +
                       prog.objects[o].name + "') has " +
                       std::to_string(prog.objects[o].residues) +
                       " residues");
    }
    rep.checksRun += 2 + prog.objects.size();

    const int n = static_cast<int>(prog.insts.size());
    for (int i = 0; i < n; ++i) {
        const IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue; // stale operands on dead values are expected
        const IrShape shape = shapeOf(inst.op);
        const std::string who = display(inst);
        rep.checksRun += 9;

        // Operand ids: in range, defined earlier, live, value-producing.
        for (int slot = 0; slot < 3; ++slot) {
            const int v = inst.operands()[slot];
            const char *name = slot == 0 ? "a" : slot == 1 ? "b" : "c";
            if (v < 0)
                continue;
            if (v >= n) {
                report(rep, "ir.operand.range", i,
                       "operand " + std::string(name) + "=v" +
                           std::to_string(v) + " out of range in " + who);
                continue;
            }
            if (v >= i) {
                report(rep, "ir.operand.order", i,
                       "operand " + std::string(name) + "=v" +
                           std::to_string(v) +
                           " is not defined before its use in " + who);
                continue;
            }
            if (prog.insts[v].dead)
                report(rep, "ir.operand.dead", i,
                       "live instruction " + who + " references dead v" +
                           std::to_string(v));
            if (prog.insts[v].op == IrOp::Store)
                report(rep, "ir.operand.novalue", i,
                       "operand " + std::string(name) + "=v" +
                           std::to_string(v) +
                           " names a Store (defines no value) in " + who);
        }

        // Arity: required slots present, forbidden slots empty.
        if (shape.needsA && inst.a < 0)
            report(rep, "ir.operand.arity", i,
                   "missing operand a in " + who);
        if (!shape.needsA && inst.a >= 0)
            report(rep, "ir.operand.arity", i,
                   "unexpected operand a in " + who);
        if (shape.usesB && inst.b < 0 && !inst.useImm)
            report(rep, "ir.operand.arity", i,
                   "missing second operand (b or imm) in " + who);
        if (!shape.usesB && inst.b >= 0)
            report(rep, "ir.operand.arity", i,
                   "unexpected operand b in " + who);
        if (shape.needsC && inst.c < 0)
            report(rep, "ir.operand.arity", i,
                   "missing Mac accumulator c in " + who);
        if (inst.op != IrOp::Mac && inst.c >= 0)
            report(rep, "ir.mac.conly", i,
                   "operand c on non-Mac instruction " + who);
        if (inst.useImm && inst.b >= 0)
            report(rep, "ir.imm.exclusive", i,
                   "useImm set while b=v" + std::to_string(inst.b) +
                       " names a vector operand in " + who);
        if (inst.useImm && !shape.allowsImm)
            report(rep, "ir.imm.exclusive", i,
                   "useImm set on an opcode without an immediate form "
                   "in " +
                       who);

        // Memory references: only Load/Store carry one, and it must
        // name a real residue slot; stores must not hit key/constant
        // objects.
        if (shape.isMem) {
            if (inst.mem.object < 0 ||
                inst.mem.object >= static_cast<int>(prog.objects.size())) {
                report(rep, "ir.mem.object", i,
                       "object id " + std::to_string(inst.mem.object) +
                           " out of range in " + who);
            } else {
                const MemObject &obj = prog.objects[inst.mem.object];
                if (inst.mem.index < 0 || inst.mem.index >= obj.residues)
                    report(rep, "ir.mem.index", i,
                           "residue index " +
                               std::to_string(inst.mem.index) +
                               " outside object '" + obj.name + "' (" +
                               std::to_string(obj.residues) +
                               " residues) in " + who);
                if (inst.op == IrOp::Store && obj.readOnly)
                    report(rep, "ir.mem.readonly", i,
                           "store to read-only object '" + obj.name +
                               "' in " + who);
            }
        } else if (inst.mem.object >= 0) {
            report(rep, "ir.mem.stray", i,
                   "non-memory instruction carries a MemRef in " + who);
        }

        if (inst.modulus >= kMaxLimbIndex)
            report(rep, "ir.modulus.range", i,
                   "limb index " + std::to_string(inst.modulus) +
                       " exceeds the architectural cap in " + who);

        // Galois elements index the automorphism group (Z/2NZ)*; the
        // builder emits them in [1, 2N) and the rotalg pass composes
        // and canonicalizes within that range (note the group has odd
        // elements only, but kernels legitimately encode even raw
        // indices like 5 + r, so the rule checks the range alone).
        if (inst.op == IrOp::Auto && inst.useImm) {
            const u64 two_n = u64(prog.degree) * 2;
            if (inst.imm < 1 || (two_n > 0 && inst.imm >= two_n))
                report(rep, "ir.auto.elt", i,
                       "Galois element " + std::to_string(inst.imm) +
                           " outside [1, " + std::to_string(two_n) +
                           ") in " + who);
        }
    }
    return rep;
}

} // namespace effact
