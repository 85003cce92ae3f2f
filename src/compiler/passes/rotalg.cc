/**
 * @file
 * Rotation-chain algebraic rewrite (spec key `"rotalg"`).
 *
 * Automorphisms compose multiplicatively on the Galois element:
 * sigma_g1(sigma_g2(x)) = sigma_{g1*g2 mod 2N}(x). HE kernels emit
 * serial sigma-chains (rotate-accumulate loops, baby-step/giant-step
 * ladders), which after lowering are Auto-of-Auto dependence chains
 * that serialize on the single AUTO unit. This pass rewrites every
 * rotation to read directly from its chain's root with the composed
 * element, which
 *
 *   - breaks the serial dependence (each hoisted rotation depends only
 *     on the root, so the scheduler can overlap their key-switch work),
 *   - canonicalizes equal net rotations onto one Galois element so the
 *     value-numbering PRE pass can deduplicate them, and
 *   - leaves the bypassed intermediate rotations without uses; a
 *     rotation-restricted DCE phase retires them (no generic DCE pass
 *     exists — without this, composition would only add instructions).
 *
 * The algorithm is snapshot-based and order-free: phase A builds a
 * read-only snapshot of (source, element, chainable) per instruction,
 * then every rotation walks the *original* chain on that snapshot and
 * rewrites only its own fields, so no rewrite reads another's output.
 *
 * Invariant (rule `ir.auto.elt`): a live immediate-form Auto carries a
 * Galois element in [1, 2N). The pass preserves it — composed elements
 * are reduced mod 2N, a composition that degenerates to 0 is skipped,
 * and identity compositions (element 1) fold into Copy instead.
 */
#include "compiler/pass.h"

namespace effact {

namespace {

struct RotSnapshot
{
    std::vector<uint8_t> is_rot; ///< live immediate-form Auto
    std::vector<int> src;        ///< its input value id
    std::vector<u64> elt;        ///< Galois element, reduced mod 2N
    std::vector<uint32_t> mod;   ///< limb index (chains stay per-limb)
};

struct RotCounts
{
    size_t composed = 0;      ///< rotations re-rooted past >=1 rotation
    size_t identity = 0;      ///< net element 1 mod 2N folded to Copy
    size_t canonicalized = 0; ///< oversized element reduced into [1, 2N)
    size_t dead = 0;          ///< use-free rotations retired
};

} // namespace

size_t
runRotAlg(IrProgram &prog, StatSet &stats)
{
    const size_t n = prog.insts.size();
    const u64 two_n = u64(prog.degree) * 2;
    if (n == 0 || two_n == 0)
        return 0;

    // Phase A: read-only snapshot of the rotation graph before any
    // rewrite, so phase B's chain walks see only original chains.
    RotSnapshot snap;
    snap.is_rot.resize(n);
    snap.src.resize(n);
    snap.elt.resize(n);
    snap.mod.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const IrInst &inst = prog.insts[i];
        snap.is_rot[i] = !inst.dead && inst.op == IrOp::Auto &&
                         inst.useImm && inst.a >= 0;
        snap.src[i] = inst.a;
        snap.elt[i] = inst.imm % two_n;
        snap.mod[i] = inst.modulus;
    }

    // Phase B: every rotation walks its own original chain on the
    // snapshot (operands reference earlier values, so the walk strictly
    // decreases and terminates) and rewrites only its own fields.
    RotCounts total;
    for (size_t i = 0; i < n; ++i) {
        if (!snap.is_rot[i])
            continue;
        IrInst &inst = prog.insts[i];
        u64 product = snap.elt[i];
        int root = snap.src[i];
        size_t hops = 0;
        while (root >= 0 && snap.is_rot[size_t(root)] &&
               snap.mod[size_t(root)] == snap.mod[i]) {
            const u64 composed = product * snap.elt[size_t(root)] % two_n;
            if (composed == 0)
                break; // would leave the legal element range
            product = composed;
            root = snap.src[size_t(root)];
            ++hops;
        }
        if (hops > 0) {
            if (product == 1) {
                inst.op = IrOp::Copy;
                inst.a = root;
                inst.b = -1;
                inst.useImm = false;
                inst.imm = 0;
                ++total.identity;
            } else {
                inst.a = root;
                inst.imm = product;
                ++total.composed;
            }
        } else if (product == 1) {
            inst.op = IrOp::Copy;
            inst.b = -1;
            inst.useImm = false;
            inst.imm = 0;
            ++total.identity;
        } else if (inst.imm != product && product != 0) {
            inst.imm = product;
            ++total.canonicalized;
        }
    }

    // Phase C: retire rotations the re-rooting left without uses. All
    // uses are counted before any rotation is retired.
    std::vector<uint32_t> uses(n, 0);
    for (const IrInst &inst : prog.insts) {
        if (inst.dead)
            continue;
        for (int v : inst.operands())
            if (v >= 0)
                ++uses[size_t(v)];
    }
    for (size_t i = 0; i < n; ++i) {
        IrInst &inst = prog.insts[i];
        if (!inst.dead && inst.op == IrOp::Auto && uses[i] == 0) {
            prog.kill(inst);
            ++total.dead;
        }
    }

    stats.add("rotalg.composed", double(total.composed));
    stats.add("rotalg.identity", double(total.identity));
    stats.add("rotalg.canonicalized", double(total.canonicalized));
    stats.add("rotalg.deadRotations", double(total.dead));
    return total.composed + total.identity + total.canonicalized +
           total.dead;
}

} // namespace effact
