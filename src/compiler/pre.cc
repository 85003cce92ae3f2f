#include "compiler/pass.h"

#include <algorithm>
#include <array>

#include "common/hash.h"

namespace effact {

namespace {

/** Value-numbering key. */
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

u64
packPair(int lo, int hi)
{
    return u64(uint32_t(lo)) | u64(uint32_t(hi)) << 32;
}

/** Key hash: the four packed key words, each scaled by its own odd
 *  constant, folded together and run through the splitmix64 finalizer.
 *  The packing drops the top half of `mem_idx`, which can only cause a
 *  collision (one extra key compare), never a wrong merge. */
u64
hashKey(const VnKey &k)
{
    const u64 head = u64(k.op) | u64(k.use_imm) << 8 |
                     u64(uint16_t(k.mem_idx)) << 16 | u64(k.modulus) << 32;
    return splitmix64(head * 0x9e3779b97f4a7c15ULL ^
                      packPair(k.a, k.b) * 0xc2b2ae3d27d4eb4fULL ^
                      packPair(k.c, k.mem_obj) * 0x165667b19e3779f9ULL ^
                      k.imm * 0xd6e8feb86659fd93ULL);
}

bool
commutative(IrOp op)
{
    return op == IrOp::Add || op == IrOp::Mul;
}

/** Builds the VN key from an instruction's current operand values;
 *  returns false for impure instructions (stores, mutable loads).
 *  Inlined into the scan's call sites: as an out-of-line call it made
 *  the paper-scale scan ~1.6x slower. */
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

/** Dead-code elimination: anything unused that is not a Store. */
size_t
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
        prog.kill(inst);
        ++dce;
        // A use count hitting zero is handled when the reverse loop
        // reaches the defining instruction.
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

/** One slot of the value-numbering table: the winning instruction
 *  (-1 = empty) and the high half of its key hash. */
struct VnSlot
{
    int32_t winner;
    uint32_t tag;
};

/** Lookahead of the value-numbering scan, in instructions: how far ahead
 *  of the probe it keys an instruction and prefetches that key's home
 *  slot, and how far ahead it reads the slot and prefetches the winner
 *  the slot names. On the paper job, key distances of 8 to 32 ran
 *  equally fast and 48 or 64 slightly slower (bench/NOTES.md). */
constexpr size_t kKeyAhead = 16;
constexpr size_t kSlotAhead = kKeyAhead / 2;

/** A lookahead key's hash; `pure` is false for an instruction the scan
 *  will not number (dead or impure). */
struct PendingKey
{
    u64 hash;
    bool pure;
};

CseCounts
runCse(IrProgram &prog)
{
    // Value numbering over the SSA program (the dominator structure of a
    // straight-line program is trivial, so hash-based VN subsumes the
    // PRE of [15,32,36] here). Loads from read-only objects (keys,
    // plaintext constants) are pure and participate; mutable loads and
    // stores do not.
    //
    // The table is open-addressed with linear probing, at least twice as
    // many slots as instructions (load factor <= 1/2), allocated once.
    // A slot stores no key: the scan only ever rewrites the current
    // instruction, so a winner's operands stay exactly as they were
    // resolved when it was inserted, and re-running `makeKey` on it
    // reproduces its key. The tag rejects almost every non-matching slot
    // before that re-keying has to touch the winner.
    //
    // On the paper job both the table (8 MiB) and the IR (10 MiB) are
    // far larger than the cache, so a hit costs two dependent misses:
    // the home slot, then the winner's `IrInst`. The scan hides them by
    // software pipelining. Step i keys a copy of instruction
    // i + kKeyAhead, its operands resolved through `fwd` as it stands,
    // and prefetches that key's home slot. It then reads the home slot
    // of instruction i + kSlotAhead, keyed kKeyAhead - kSlotAhead steps
    // earlier, and prefetches the winner when the tag matches. Last, it
    // runs the exact probe for instruction i. The lookahead only reads:
    // it writes neither the IR, nor `fwd`, nor the table. A provisional
    // key is stale when one of its operands is merged inside the window;
    // that costs a wasted prefetch, never a different merge, because the
    // probe rebuilds the key from the operands it has just resolved.
    const size_t n = prog.insts.size();
    size_t capacity = 1;
    while (capacity < 2 * n)
        capacity <<= 1;
    const size_t mask = capacity - 1;
    std::vector<VnSlot> table(capacity, VnSlot{-1, 0});

    std::vector<int> fwd(n);
    for (size_t i = 0; i < n; ++i)
        fwd[i] = static_cast<int>(i);
    auto resolve = [&](int v) {
        while (v >= 0 && fwd[v] != v)
            v = fwd[v];
        return v;
    };
    // Resolves `inst`'s operands through `fwd` in place, then keys it.
    auto resolveAndKey = [&](IrInst &inst, VnKey &key) {
        for (int *slot : inst.operandSlots())
            if (*slot >= 0)
                *slot = resolve(*slot);
        return makeKey(prog, inst, key);
    };

    // Ring of lookahead hashes, indexed by instruction modulo kKeyAhead:
    // instruction j's entry is written at step j - kKeyAhead and read at
    // step j - kSlotAhead, before step j reuses it.
    std::array<PendingKey, kKeyAhead> pending{};
    auto keyAhead = [&](size_t j) {
        IrInst copy = prog.insts[j];
        PendingKey &p = pending[j % kKeyAhead];
        VnKey key;
        p.pure = !copy.dead && resolveAndKey(copy, key);
        if (!p.pure)
            return;
        p.hash = hashKey(key);
        __builtin_prefetch(&table[p.hash & mask]);
    };
    auto slotAhead = [&](size_t j) {
        const PendingKey &p = pending[j % kKeyAhead];
        if (!p.pure)
            return;
        const VnSlot slot = table[p.hash & mask];
        const auto tag = static_cast<uint32_t>(p.hash >> 32);
        if (slot.winner >= 0 && slot.tag == tag)
            __builtin_prefetch(&prog.insts[slot.winner]);
    };
    for (size_t j = 0; j < std::min(n, kKeyAhead); ++j)
        keyAhead(j);
    for (size_t j = 0; j < std::min(n, kSlotAhead); ++j)
        slotAhead(j);

    CseCounts counts;
    for (size_t i = 0; i < n; ++i) {
        if (i + kKeyAhead < n)
            keyAhead(i + kKeyAhead);
        if (i + kSlotAhead < n)
            slotAhead(i + kSlotAhead);

        IrInst &inst = prog.insts[i];
        VnKey key;
        if (inst.dead || !resolveAndKey(inst, key))
            continue;
        const u64 h = hashKey(key);
        const auto tag = static_cast<uint32_t>(h >> 32);
        for (size_t s = h & mask;; s = (s + 1) & mask) {
            VnSlot &slot = table[s];
            if (slot.winner < 0) {
                // First insert wins: the winner is the smallest index.
                slot = {static_cast<int32_t>(i), tag};
                break;
            }
            if (slot.tag != tag)
                continue;
            VnKey winner_key;
            makeKey(prog, prog.insts[slot.winner], winner_key);
            if (!(winner_key == key))
                continue;
            fwd[i] = slot.winner;
            prog.kill(inst);
            if (inst.op == IrOp::Load)
                ++counts.reload;
            else
                ++counts.cse;
            break;
        }
    }
    return counts;
}

} // namespace

size_t
runPre(IrProgram &prog, StatSet &stats)
{
    const CseCounts counts = runCse(prog);
    const size_t dce = runDce(prog);

    stats.add("pre.cseRemoved", double(counts.cse));
    stats.add("pre.readOnlyReloadsRemoved", double(counts.reload));
    stats.add("pre.deadCodeRemoved", double(dce));
    return counts.cse + counts.reload + dce;
}

} // namespace effact
