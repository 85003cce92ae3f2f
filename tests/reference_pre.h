/**
 * @file
 * Differential oracle for PRE: the original value-numbering scan over a
 * node-based `std::unordered_map`, kept verbatim as test code. The
 * library's `runPre` (a flat open-addressed table) must match it
 * exactly: the same final IR, dead flags and operand rewrites included,
 * and the same `pre.*` counts.
 */
#ifndef EFFACT_TESTS_REFERENCE_PRE_H
#define EFFACT_TESTS_REFERENCE_PRE_H

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "compiler/pass_manager.h"

namespace effact {
namespace reference {

/** Hash key for value numbering. */
struct VnKey
{
    uint8_t op;
    int a;
    int b;
    int c; ///< Mac accumulator (-1 otherwise)
    u64 imm;
    uint8_t use_imm;
    uint32_t modulus;
    int mem_obj;
    int mem_idx;

    bool operator==(const VnKey &o) const
    {
        return op == o.op && a == o.a && b == o.b && c == o.c &&
               imm == o.imm && use_imm == o.use_imm &&
               modulus == o.modulus && mem_obj == o.mem_obj &&
               mem_idx == o.mem_idx;
    }
};

struct VnKeyHash
{
    size_t
    operator()(const VnKey &k) const
    {
        size_t h = k.op;
        h = h * 1000003 + static_cast<size_t>(k.a + 1);
        h = h * 1000003 + static_cast<size_t>(k.b + 1);
        h = h * 1000003 + static_cast<size_t>(k.c + 1);
        h = h * 1000003 + static_cast<size_t>(k.imm);
        h = h * 1000003 + k.use_imm;
        h = h * 1000003 + k.modulus;
        h = h * 1000003 + static_cast<size_t>(k.mem_obj + 1);
        h = h * 1000003 + static_cast<size_t>(k.mem_idx);
        return h;
    }
};

inline bool
commutative(IrOp op)
{
    return op == IrOp::Add || op == IrOp::Mul;
}

/** Builds the VN key from an instruction's current operand values;
 *  returns false for impure instructions (stores, mutable loads). */
inline bool
makeKey(const IrProgram &prog, const IrInst &inst, VnKey &key)
{
    key = VnKey{};
    key.op = static_cast<uint8_t>(inst.op);
    key.c = -1;
    key.modulus = inst.modulus;
    key.imm = inst.useImm ? inst.imm : 0;
    key.use_imm = inst.useImm;
    key.mem_obj = -1;
    key.mem_idx = 0;
    switch (inst.op) {
      case IrOp::Mul:
      case IrOp::Add:
      case IrOp::Sub:
      case IrOp::Mac:
      case IrOp::Ntt:
      case IrOp::Intt:
      case IrOp::Auto:
        key.a = inst.a;
        key.b = inst.b;
        key.c = inst.c;
        if (commutative(inst.op) && !inst.useImm && key.b < key.a)
            std::swap(key.a, key.b);
        if (inst.op == IrOp::Auto)
            key.imm = inst.imm;
        return true;
      case IrOp::Load:
        if (inst.mem.object >= 0 &&
            prog.objects[inst.mem.object].readOnly) {
            key.a = -1;
            key.b = -1;
            key.mem_obj = inst.mem.object;
            key.mem_idx = inst.mem.index;
            return true;
        }
        return false;
      default:
        return false;
    }
}

inline size_t
runDce(IrProgram &prog)
{
    std::vector<uint32_t> uses(prog.insts.size(), 0);
    for (const auto &inst : prog.insts) {
        if (inst.dead)
            continue;
        for (int operand : inst.operands())
            if (operand >= 0)
                ++uses[operand];
    }
    size_t dce = 0;
    for (size_t i = prog.insts.size(); i-- > 0;) {
        IrInst &inst = prog.insts[i];
        if (inst.dead || inst.op == IrOp::Store || uses[i] != 0)
            continue;
        inst.dead = true;
        ++dce;
        for (int operand : inst.operands())
            if (operand >= 0)
                --uses[operand];
    }
    return dce;
}

struct CseCounts
{
    size_t cse = 0;
    size_t reload = 0;
};

inline CseCounts
runCseSerial(IrProgram &prog)
{
    std::unordered_map<VnKey, int, VnKeyHash> table;
    table.reserve(prog.insts.size());
    std::vector<int> fwd(prog.insts.size());
    for (size_t i = 0; i < fwd.size(); ++i)
        fwd[i] = static_cast<int>(i);
    auto resolve = [&](int v) {
        while (v >= 0 && fwd[v] != v)
            v = fwd[v];
        return v;
    };

    CseCounts counts;
    for (size_t i = 0; i < prog.insts.size(); ++i) {
        IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int *slot : inst.operandSlots())
            if (*slot >= 0)
                *slot = resolve(*slot);
        VnKey key;
        if (!makeKey(prog, inst, key))
            continue;
        auto [it, inserted] = table.emplace(key, static_cast<int>(i));
        if (!inserted) {
            fwd[i] = it->second;
            inst.dead = true;
            if (inst.op == IrOp::Load)
                ++counts.reload;
            else
                ++counts.cse;
        }
    }
    return counts;
}

} // namespace reference

/** The reference PRE: same stat keys and return value as `runPre`. */
inline size_t
referencePre(IrProgram &prog, StatSet &stats)
{
    const reference::CseCounts counts = reference::runCseSerial(prog);
    const size_t dce = reference::runDce(prog);
    stats.add("pre.cseRemoved", double(counts.cse));
    stats.add("pre.readOnlyReloadsRemoved", double(counts.reload));
    stats.add("pre.deadCodeRemoved", double(dce));
    return counts.cse + counts.reload + dce;
}

/**
 * Runs the pipeline `spec` on `prog` to its fixed point, pass by pass.
 * Every PRE step first runs `referencePre` on a copy of its input and
 * requires `runPre` to leave the same program fingerprint, the same
 * `pre.*` counts and the same rewrite total. Returns the number of PRE
 * steps compared.
 */
inline size_t
expectPreMatchesReference(IrProgram prog, const std::string &spec,
                          const std::string &tag)
{
    std::vector<std::string> names;
    std::string error;
    EXPECT_TRUE(parsePipelineSpec(spec, &names, &error)) << error;
    AnalysisManager analyses;
    size_t compared = 0;
    constexpr int kMaxSweeps = 16;
    for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
        bool changed = false;
        for (const std::string &name : names) {
            StatSet stats;
            if (name != "pre") {
                changed = createPass(name)->run(prog, analyses, stats) ||
                          changed;
                continue;
            }
            IrProgram expected = prog;
            StatSet expected_stats;
            const size_t expected_rewrites =
                referencePre(expected, expected_stats);
            const size_t rewrites = runPre(prog, stats);
            ++compared;
            const std::string where =
                tag + " sweep " + std::to_string(sweep);
            EXPECT_EQ(fingerprint(prog), fingerprint(expected)) << where;
            EXPECT_EQ(stats.toString(), expected_stats.toString()) << where;
            EXPECT_EQ(rewrites, expected_rewrites) << where;
            if (rewrites > 0) {
                prog.bumpVersion();
                changed = true;
            }
        }
        if (!changed)
            return compared;
    }
    ADD_FAILURE() << tag << ": pipeline '" << spec << "' did not converge";
    return compared;
}

} // namespace effact

#endif // EFFACT_TESTS_REFERENCE_PRE_H
