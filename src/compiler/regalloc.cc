#include "compiler/pass.h"

#include "common/logging.h"

#include <algorithm>
#include <functional>

namespace effact {

namespace {

Opcode
toOpcode(IrOp op)
{
    switch (op) {
      case IrOp::Mul: return Opcode::MMUL;
      case IrOp::Add: return Opcode::MMAD;
      case IrOp::Sub: return Opcode::MSUB;
      case IrOp::Mac: return Opcode::MMAC;
      case IrOp::Ntt: return Opcode::NTT;
      case IrOp::Intt: return Opcode::INTT;
      case IrOp::Auto: return Opcode::AUTO;
      case IrOp::Load: return Opcode::LOAD_RES;
      case IrOp::Store: return Opcode::STORE_RES;
      case IrOp::Copy: return Opcode::VEC_COPY;
    }
    panic("bad IrOp");
}

/**
 * Spill reloads emitted ahead of non-load instruction `i`: one per
 * source operand whose value was spilled (`emitOne`'s `operandFor`). A
 * streamed store reads its operand from the producer's FIFO instead.
 * The scratch-pressure scan and the exact emission count both use this
 * rule.
 */
uint32_t
reloadsFor(const IrProgram &prog, size_t i, const StreamingInfo &streaming,
           const std::vector<uint8_t> &spilled)
{
    const IrInst &inst = prog.insts[i];
    if (inst.op == IrOp::Store)
        return !streaming.streamedStore[i] && inst.a >= 0 && spilled[inst.a]
                   ? 1
                   : 0;
    uint32_t cnt = 0;
    if (inst.a >= 0 && spilled[inst.a])
        ++cnt;
    if (!inst.useImm && inst.b >= 0 && spilled[inst.b])
        ++cnt;
    if (inst.op == IrOp::Mac && inst.c >= 0 && spilled[inst.c])
        ++cnt;
    return cnt;
}

/** Read-only allocation results the emission reads. */
struct EmitCtx
{
    const IrProgram &prog;
    const StreamingInfo &streaming;
    const std::vector<uint8_t> &value_streams_to_store;
    const std::vector<int> &assigned;
    const std::vector<uint8_t> &spilled;
    const std::vector<uint8_t> &remat;
    const std::vector<u64> &spill_addr;
    const std::vector<u64> &obj_base;
    size_t residue_bytes;
    size_t alloc_regs;
    size_t num_scratch;
};

/**
 * Appends the machine code for one scheduled IR instruction to `mp`:
 * spill reloads first, then the instruction, then its spill store.
 * `scratch_calls` is the running count of scratch-register grabs; the
 * register is `alloc_regs + scratch_calls % num_scratch`, a round-robin
 * over the scratch pool.
 */
void
emitOne(const EmitCtx &cx, int idx, MachineProgram &mp, u64 &scratch_calls)
{
    const size_t i = static_cast<size_t>(idx);
    const IrInst &inst = cx.prog.insts[i];

    auto scratchReg = [&]() {
        const int r = static_cast<int>(
            cx.alloc_regs + scratch_calls % cx.num_scratch);
        ++scratch_calls;
        return r;
    };

    auto operandFor = [&](int value) {
        const IrInst &def = cx.prog.insts[value];
        if (def.op == IrOp::Load && cx.streaming.streamedLoad[value]) {
            // Streaming operand fed straight from DRAM (Sec. IV-C),
            // addressed in residue units.
            return Operand::stream(
                cx.obj_base[def.mem.object] / cx.residue_bytes +
                    static_cast<u64>(def.mem.index),
                /*from_dram=*/true);
        }
        if (cx.streaming.fifoForward[value])
            return Operand::stream(static_cast<u64>(value));
        if (cx.assigned[value] >= 0)
            return Operand::regOp(cx.assigned[value]);
        if (cx.spilled[value]) {
            // Reload from the spill slot into a scratch register.
            int r = scratchReg();
            MachInst load;
            load.op = Opcode::LOAD_RES;
            load.setDest(Operand::regOp(r));
            load.setHbmAddr(cx.spill_addr[value]);
            load.irId = value;
            mp.insts.push_back(load);
            ++mp.spillLoads;
            return Operand::regOp(r);
        }
        // Value streams to a store or is scratch-resident.
        return Operand::regOp(scratchReg());
    };

    if (inst.op == IrOp::Load) {
        if (cx.streaming.streamedLoad[i])
            return; // merged into its consumer
        if (cx.remat[i])
            return; // reloaded at each use instead
        MachInst mi;
        mi.op = Opcode::LOAD_RES;
        // A load whose value is never used (possible when DCE is
        // off) has no allocated register; land it in scratch like
        // any other unconsumed result — emitting register id -1
        // would corrupt dependence tracking downstream.
        mi.setDest(Operand::regOp(cx.assigned[i] >= 0 ? cx.assigned[i]
                                                      : scratchReg()));
        mi.setHbmAddr(cx.obj_base[inst.mem.object] +
                      static_cast<u64>(inst.mem.index) * cx.residue_bytes);
        mi.modulus = inst.modulus;
        mi.irId = idx;
        mp.insts.push_back(mi);
        return;
    }

    if (inst.op == IrOp::Store) {
        MachInst mi;
        mi.op = Opcode::STORE_RES;
        mi.setSrc0(cx.streaming.streamedStore[i]
                       ? Operand::stream(static_cast<u64>(inst.a))
                       : operandFor(inst.a));
        mi.setHbmAddr(cx.obj_base[inst.mem.object] +
                      static_cast<u64>(inst.mem.index) * cx.residue_bytes);
        mi.modulus = inst.modulus;
        mi.irId = idx;
        mp.insts.push_back(mi);
        return;
    }

    MachInst mi;
    mi.op = toOpcode(inst.op);
    mi.modulus = inst.modulus;
    mi.setImm(inst.imm);
    mi.irId = idx;
    if (inst.a >= 0)
        mi.setSrc0(operandFor(inst.a));
    if (inst.useImm)
        mi.setSrc1(Operand::imm(inst.imm));
    else if (inst.b >= 0)
        mi.setSrc1(operandFor(inst.b));

    if (inst.op == IrOp::Mac && inst.c >= 0)
        mi.setSrc2(operandFor(inst.c));

    if (cx.value_streams_to_store[i] || cx.streaming.fifoForward[i])
        mi.setDest(Operand::stream(static_cast<u64>(i)));
    else if (cx.assigned[i] >= 0)
        mi.setDest(Operand::regOp(cx.assigned[i]));
    else
        mi.setDest(Operand::regOp(scratchReg()));
    mp.insts.push_back(mi);

    if (cx.spilled[i] && !cx.remat[i]) {
        MachInst spill;
        spill.op = Opcode::STORE_RES;
        spill.setSrc0(mi.dest());
        spill.setHbmAddr(cx.spill_addr[i]);
        spill.irId = idx;
        mp.insts.push_back(spill);
        ++mp.spillStores;
    }
}

} // namespace

MachineProgram
runRegAllocAndCodegen(const IrProgram &prog, const std::vector<int> &order,
                      const StreamingInfo &streaming,
                      const CompilerOptions &opts, StatSet &stats)
{
    const size_t n = prog.insts.size();
    const size_t residue_bytes = prog.degree * 8;
    size_t num_regs = std::max<size_t>(opts.sramBytes / residue_bytes, 8);

    // Scheduled position of each instruction.
    std::vector<int> pos(n, -1);
    for (size_t k = 0; k < order.size(); ++k)
        pos[order[k]] = static_cast<int>(k);

    // Which values need an SRAM register at all.
    std::vector<uint8_t> needs_reg(n, 0);
    std::vector<int> last_use(n, -1);
    for (size_t i = 0; i < n; ++i) {
        const IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        for (int operand : {inst.a, inst.b, inst.c})
            if (operand >= 0)
                last_use[operand] = std::max(last_use[operand], pos[i]);
    }
    // Which values stream straight from their FU to a store. Computed
    // in a pass of its own BEFORE the needs_reg scan: a store always
    // follows its operand in value order, so folding this into the scan
    // below would visit the producer before the flag is set, hand the
    // value a register interval, and let linear scan spill it — whose
    // spill store would then consume the producer's one-shot FIFO token
    // and leave the real streamed store with an unproduced token
    // (caught by mach.stream.producer at the back-end checkpoint).
    std::vector<uint8_t> value_streams_to_store(n, 0);
    for (size_t i = 0; i < n; ++i) {
        const IrInst &inst = prog.insts[i];
        if (!inst.dead && inst.op == IrOp::Store &&
            streaming.streamedStore[i] && inst.a >= 0)
            value_streams_to_store[inst.a] = 1;
    }
    for (size_t i = 0; i < n; ++i) {
        const IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        if (inst.op == IrOp::Store)
            continue; // stores produce no value
        if (inst.op == IrOp::Load && streaming.streamedLoad[i])
            continue; // consumer reads the FIFO
        if (streaming.fifoForward[i])
            continue; // forwarded FU-to-FU
        if (value_streams_to_store[i])
            continue; // result streams straight to DRAM
        if (last_use[i] < 0)
            continue; // dead result (kept only for Store-less outputs)
        needs_reg[i] = 1;
    }

    // Linear scan over the schedule.
    std::vector<int> assigned(n, -1);    // register id per value
    std::vector<uint8_t> spilled(n, 0);  // spilled to HBM
    size_t spill_count = 0;

    // Priority policy (`RegAllocPolicy::Priority`): the scheduled use
    // positions of every value, so a spill decision can score every
    // candidate against the spill-dominated cycle model. A
    // spilled value never regains a register — emission reloads it at
    // EVERY remaining use and writes its slot once at the def — so the
    // cost of evicting v at position s is its remaining-use count r
    // plus a fixed kStoreCost charge for the spill store; the benefit
    // is how long the freed register stays free: the distance to v's
    // interval END. Evict the candidate minimizing cost per cycle of
    // occupancy freed, (r + kStoreCost)/(end - s). The end-distance
    // denominator keeps the legacy scan's strength (parking the
    // longest-lived interval defers the next pressure event, which is
    // what decides cycles when spills are rare, e.g. bootstrapping at
    // 54 MB SRAM), while the reload numerator keeps many-use values
    // resident even when their interval end is far away — the case
    // the legacy furthest-END heuristic gets wrong and what buys the
    // double-digit win at 13 MB. Scoring breathing room by NEXT USE
    // instead (classic Belady) loses at large SRAM: with eviction
    // permanent, a far next use says nothing about how soon the
    // register is truly free. Both constants were swept on the perf
    // lane's win grid; (r + 1)/(end - s) wins or ties every measured
    // (workload, SRAM) point.
    const bool priority_alloc = opts.regalloc == RegAllocPolicy::Priority;
    constexpr long long kStoreCost = 1;
    // Scheduled use positions of every value in one CSR array: value v's
    // are use_at[use_begin[v] .. use_begin[v + 1]). Filled by walking the
    // schedule in order, so each value's run comes out ascending.
    std::vector<uint32_t> use_begin;
    std::vector<int> use_at;
    if (priority_alloc) {
        use_begin.assign(n + 1, 0);
        for (int idx : order) {
            const IrInst &inst = prog.insts[static_cast<size_t>(idx)];
            if (inst.dead)
                continue;
            for (int operand : {inst.a, inst.b, inst.c})
                if (operand >= 0)
                    ++use_begin[static_cast<size_t>(operand) + 1];
        }
        for (size_t v = 0; v < n; ++v)
            use_begin[v + 1] += use_begin[v];
        use_at.resize(use_begin[n]);
        std::vector<uint32_t> fill(use_begin.begin(), use_begin.end() - 1);
        for (int idx : order) {
            const IrInst &inst = prog.insts[static_cast<size_t>(idx)];
            if (inst.dead)
                continue;
            for (int operand : {inst.a, inst.b, inst.c})
                if (operand >= 0)
                    use_at[fill[static_cast<size_t>(operand)]++] = pos[idx];
        }
    }
    // Per-value read cursor into use_at. Scan positions only increase,
    // so a cursor only moves forward: O(uses) per scan in total.
    std::vector<uint32_t> use_cursor;

    auto linearScan = [&](size_t alloc_regs) {
        assigned.assign(n, -1);
        spilled.assign(n, 0);
        spill_count = 0;
        std::vector<int> free_regs;
        for (size_t r = 0; r < alloc_regs; ++r)
            free_regs.push_back(static_cast<int>(r));
        // Active intervals as (end, value), sorted descending, so the
        // intervals that expire first sit at the back and leave with a
        // pop instead of shifting the list. At most `alloc_regs`
        // entries, so a flat vector beats a node-based set.
        std::vector<std::pair<int, int>> active;
        active.reserve(alloc_regs);
        auto activate = [&active](int end, int v) {
            const std::pair<int, int> entry(end, v);
            active.insert(std::upper_bound(active.begin(), active.end(),
                                           entry, std::greater<>()),
                          entry);
        };

        if (priority_alloc)
            use_cursor.assign(use_begin.begin(), use_begin.end() - 1);
        auto reloadsDue = [&](int v, int s) -> long long {
            const size_t value = static_cast<size_t>(v);
            const uint32_t last = use_begin[value + 1];
            uint32_t &c = use_cursor[value];
            while (c < last && use_at[c] < s)
                ++c;
            return last - c;
        };
        for (int idx : order) {
            const size_t i = static_cast<size_t>(idx);
            if (!needs_reg[i])
                continue;
            const int start = pos[i];
            const int end = last_use[i];
            // Expire finished intervals, in ascending (end, value) order.
            while (!active.empty() && active.back().first < start) {
                free_regs.push_back(assigned[active.back().second]);
                active.pop_back();
            }
            if (!free_regs.empty()) {
                assigned[i] = free_regs.back();
                free_regs.pop_back();
                activate(end, idx);
            } else if (!priority_alloc) {
                // Legacy: spill the interval that ends furthest away
                // (the greatest (end, value)).
                const std::pair<int, int> furthest = active.front();
                if (furthest.first > end) {
                    int victim = furthest.second;
                    assigned[i] = assigned[victim];
                    spilled[victim] = 1;
                    assigned[victim] = -1;
                    active.erase(active.begin());
                    activate(end, idx);
                } else {
                    spilled[i] = 1;
                }
                ++spill_count;
            } else {
                // Priority: candidates are every active plus the
                // incoming value itself. Compare (r + 1)/(end - s)
                // ratios with exact integer cross-multiplication (the
                // end distance can be 0 for an interval expiring at
                // this position — cost/0 = infinity keeps it resident,
                // and it frees its register on its own next tick
                // anyway). Ties prefer the larger end distance, then
                // the smaller value id: a total order, so the pick does
                // not depend on the walk order.
                long long best_r = reloadsDue(idx, start);
                long long best_d = end - start;
                int best_v = idx;
                size_t best_at = active.size(); // the incoming value
                for (size_t k = 0; k < active.size(); ++k) {
                    const int v = active[k].second;
                    const long long r = reloadsDue(v, start);
                    const long long d = active[k].first - start;
                    const long long lhs = (r + kStoreCost) * best_d;
                    const long long rhs = (best_r + kStoreCost) * d;
                    if (lhs < rhs ||
                        (lhs == rhs &&
                         (d > best_d || (d == best_d && v < best_v)))) {
                        best_r = r;
                        best_d = d;
                        best_v = v;
                        best_at = k;
                    }
                }
                if (best_v != idx) {
                    assigned[i] = assigned[best_v];
                    spilled[best_v] = 1;
                    assigned[best_v] = -1;
                    active.erase(active.begin() +
                                 static_cast<long>(best_at));
                    activate(end, idx);
                } else {
                    spilled[i] = 1;
                }
                ++spill_count;
            }
        }
    };
    // First pass with the whole pool minus one scratch register (the
    // minimum: non-reload fallbacks below also target scratch).
    linearScan(num_regs - 1);

    // Size the scratch pool from measured reload pressure. Reloads
    // round-robin through the pool, so reuse of a scratch register
    // within the OoO scoreboard's reach creates WAW anti-dependences
    // between reloads; spacing them over `pressure` registers (the
    // most reloads observed in any issue-window span of the schedule)
    // removes that serialization. The pool is capped at the historic 4
    // (`kMaxScratchRegs`):
    // a cycle sweep across SRAM sizes showed anti-dependences only gate
    // issue in this machine model (they are nearly free), while every
    // register taken from the allocator adds spills — spill count, not
    // WAW spacing, dominates simulated cycles. So low pressure shrinks
    // the pool and returns registers to the allocator; high pressure
    // never grows it past 4.
    size_t num_scratch = 1;
    if (spill_count > 0) {
        // The span over which reloads can be in flight concurrently is
        // the target's OoO scoreboard depth.
        const size_t pressure_window =
            std::max<size_t>(opts.issueWindow, 1);
        std::vector<uint32_t> reloads;
        reloads.reserve(order.size());
        for (int idx : order)
            reloads.push_back(reloadsFor(prog, static_cast<size_t>(idx),
                                         streaming, spilled));
        size_t in_window = 0, pressure = 0;
        for (size_t k = 0; k < reloads.size(); ++k) {
            in_window += reloads[k];
            if (k >= pressure_window)
                in_window -= reloads[k - pressure_window];
            pressure = std::max(pressure, in_window);
        }
        stats.add("regalloc.reloadPressure", double(pressure));
        num_scratch =
            std::min(std::max<size_t>(pressure, 1), kMaxScratchRegs);
        if (num_scratch > 1) {
            // Re-allocate with the final pool (one resize pass; the
            // re-run's pressure is close enough not to iterate).
            linearScan(num_regs - num_scratch);
        }
    }
    const size_t alloc_regs = num_regs - num_scratch;

    // HBM address map: program objects first, then the spill area.
    std::vector<u64> obj_base(prog.objects.size(), 0);
    u64 next_addr = 0;
    for (size_t o = 0; o < prog.objects.size(); ++o) {
        obj_base[o] = next_addr;
        next_addr += static_cast<u64>(prog.objects[o].residues) *
                     residue_bytes;
    }
    // Values defined by read-only loads are rematerialized (reloaded
    // from their home address) rather than spilled: no spill store, and
    // the reload models the paper's key/constant streaming from HBM.
    std::vector<uint8_t> remat(n, 0);
    for (size_t i = 0; i < n; ++i) {
        const IrInst &inst = prog.insts[i];
        if (spilled[i] && inst.op == IrOp::Load && inst.mem.object >= 0 &&
            prog.objects[inst.mem.object].readOnly)
            remat[i] = 1;
    }
    std::vector<u64> spill_addr(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (spilled[i] && !remat[i]) {
            spill_addr[i] = next_addr;
            next_addr += residue_bytes;
        } else if (remat[i]) {
            const IrInst &inst = prog.insts[i];
            spill_addr[i] = obj_base[inst.mem.object] +
                            static_cast<u64>(inst.mem.index) *
                                residue_bytes;
        }
    }

    // --- Emission --------------------------------------------------------
    MachineProgram mp;
    mp.residueBytes = residue_bytes;
    mp.numRegs = num_regs;
    mp.scratchRegs = num_scratch;

    const EmitCtx cx{prog,       streaming, value_streams_to_store,
                     assigned,   spilled,   remat,
                     spill_addr, obj_base,  residue_bytes,
                     alloc_regs, num_scratch};

    // One append loop in schedule order into a buffer of exactly the
    // emitted size, counted with `emitOne`'s rules: a load emits itself
    // unless it is streamed or rematerialized, and never a spill store
    // (a spilled mutable load's reloads read a slot nothing writes, a
    // known defect); any other instruction emits its reloads, itself,
    // and a spill store if its value was spilled.
    size_t emitted = 0;
    for (int idx : order) {
        const size_t i = static_cast<size_t>(idx);
        if (prog.insts[i].op == IrOp::Load)
            emitted += (streaming.streamedLoad[i] || remat[i]) ? 0 : 1;
        else
            emitted += reloadsFor(prog, i, streaming, spilled) + 1 +
                       (spilled[i] && !remat[i] ? 1 : 0);
    }
    mp.insts.reserve(emitted);
    u64 scratch_calls = 0;
    for (int idx : order)
        emitOne(cx, idx, mp, scratch_calls);
    EFFACT_ASSERT(mp.insts.size() == emitted,
                  "emission produced %zu machine instructions, counted %zu",
                  mp.insts.size(), emitted);

    for (uint8_t s : streaming.streamedLoad)
        mp.streamedOps += s;
    for (uint8_t s : streaming.streamedStore)
        mp.streamedOps += s;

    stats.add("regalloc.registers", double(num_regs));
    stats.add("regalloc.scratchRegs", double(num_scratch));
    stats.add("regalloc.spilledValues", double(spill_count));
    stats.add("regalloc.spillLoads", double(mp.spillLoads));
    stats.add("regalloc.spillStores", double(mp.spillStores));
    return mp;
}

} // namespace effact
