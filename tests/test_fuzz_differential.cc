/**
 * @file
 * Randomized differential testing of the compiler and simulator:
 *
 *  (a) the fixed-point pass pipeline against the pre-pass-manager
 *      single hardcoded sweep — both optimized programs (and the
 *      un-optimized original) must be *semantically* equivalent under a
 *      reference interpreter, on seeded random IR programs the stock
 *      workloads never produce;
 *  (b) the event-driven `Simulator::run` against the legacy rescan
 *      oracle `referenceSimulate` — cycle/traffic-identical on the
 *      compiled random programs across random hardware shapes, SRAM
 *      budgets (spill pressure!), issue windows and pipeline presets.
 *
 * Reference semantics. Values are u64 scalars with wrapping arithmetic
 * (Add/Sub/Mul/Mac), and NTT/iNTT/automorphism are opaque injective
 * mixes — a model under which every implemented rewrite is sound:
 * identity folds (x*1, x+0), immediate-chain merging (the pass combines
 * raw immediates, exactly wrapping multiplication), commutative value
 * numbering, MAC fusion, and DCE. The one deliberate exception is the
 * Eq. 5 peephole: a Normal-tagged immediate scale of an iNTT result is
 * *specified* to be absorbed into downstream BConv constants (the fold
 * rewrites the scale to a Copy), so the interpreter tracks an
 * "absorbable" flag — iNTT results carry it, Copies and identity folds
 * propagate it, and a Normal-tagged immediate multiply (or the
 * immediate path of a fused MAC) of a flagged value contributes factor
 * one. Two generator modes keep this honest: `kArithmetic` never feeds
 * a Normal immediate scale from an iNTT-rooted value, so the flag never
 * fires and the check is exact wrapping arithmetic end-to-end;
 * `kScaleChains` deliberately stacks scales on iNTT results to exercise
 * the fold (and its fixed-point chain collapse) under the absorbed
 * semantics. Immediate multiplies are always Normal-tagged: chaining a
 * Normal scale into a BConv immediate would legitimately pick a
 * different representative of the same structural class than the Eq. 5
 * absorption, which is exactly the ambiguity the paper's counting model
 * does not distinguish.
 */
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "compiler/pass_manager.h"
#include "math/primes.h"
#include "pass_switches.h"
#include "platform/platform.h"
#include "reference_pre.h"
#include "reference_sim.h"
#include "rns/bconv.h"
#include "sim/machine.h"

namespace effact {
namespace {

// --- Reference interpreter ------------------------------------------------

u64
mix64(u64 x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** A value in the reference semantics. */
struct SemVal
{
    u64 v = 0;
    bool absorb = false; ///< iNTT-rooted: Normal imm scales contribute 1
    /**
     * Rotation provenance, the compositional model behind the rotalg
     * pass: an automorphism result remembers its chain root (as a value
     * id into the interpreter's own `vals` array) and the accumulated
     * Galois element mod 2N, so sigma_g2(sigma_g1(x)) evaluates to the
     * same hash as sigma_{g1*g2 mod 2N}(x) — associativity makes the
     * hash invariant under any partial composition the pass performs.
     * An accumulated element of 1 yields the root's SemVal verbatim
     * (matching the pass's identity-fold to Copy, absorb flag and all).
     * Chains only compose within one modulus, mirroring the pass.
     */
    int rotRootId = -1;  ///< chain root value id (-1 = not a rotation)
    u64 rotElt = 1;      ///< accumulated Galois element mod 2N
    uint32_t rotMod = 0; ///< modulus of the chain
};

using MemKey = std::pair<int, int>; // (object, residue index)

/**
 * Executes `prog` in program order; returns the final memory image
 * (every stored location). Pure function of the program, so any two
 * semantics-preserving rewrites of the same program agree.
 */
std::map<MemKey, u64>
interpret(const IrProgram &prog)
{
    std::vector<SemVal> vals(prog.insts.size());
    std::map<MemKey, u64> mem;
    auto initial = [](const MemRef &m) {
        return mix64(0x4c6f6164ULL ^ (u64(uint32_t(m.object)) << 32) ^
                     u64(uint32_t(m.index)));
    };
    for (size_t i = 0; i < prog.insts.size(); ++i) {
        const IrInst &inst = prog.insts[i];
        if (inst.dead)
            continue;
        const SemVal a = inst.a >= 0 ? vals[inst.a] : SemVal{};
        const SemVal b = inst.b >= 0 ? vals[inst.b] : SemVal{};
        const SemVal c = inst.c >= 0 ? vals[inst.c] : SemVal{};
        SemVal out;
        switch (inst.op) {
          case IrOp::Load: {
            auto it = mem.find({inst.mem.object, inst.mem.index});
            out.v = it != mem.end() ? it->second : initial(inst.mem);
            break;
          }
          case IrOp::Store:
            mem[{inst.mem.object, inst.mem.index}] = a.v;
            continue;
          case IrOp::Copy:
            out = a;
            break;
          case IrOp::Add:
          case IrOp::Sub:
            if (inst.useImm) {
                if (inst.imm == 0) {
                    out = a; // identity: const-prop forwards the operand
                } else {
                    out.v = inst.op == IrOp::Add ? a.v + inst.imm
                                                 : a.v - inst.imm;
                }
            } else {
                out.v = inst.op == IrOp::Add ? a.v + b.v : a.v - b.v;
            }
            break;
          case IrOp::Mul:
            if (inst.useImm) {
                if (inst.imm == 1) {
                    out = a; // identity
                } else if (inst.tag == IrTag::Normal && a.absorb) {
                    out = a; // Eq. 5: scale absorbed into constants
                } else {
                    out.v = a.v * inst.imm;
                }
            } else {
                out.v = a.v * b.v;
            }
            break;
          case IrOp::Mac:
            if (inst.useImm) {
                // The immediate path of a fused MAC follows the same
                // Eq. 5 absorption rule as the Mul it came from.
                out.v = inst.tag == IrTag::Normal && a.absorb
                            ? a.v + c.v
                            : a.v * inst.imm + c.v;
            } else {
                out.v = a.v * b.v + c.v;
            }
            break;
          case IrOp::Ntt:
            out.v = mix64(0x4e7474ULL ^ a.v ^ (u64(inst.modulus) << 48));
            break;
          case IrOp::Intt:
            out.v = mix64(0x494e7474ULL ^ a.v ^ (u64(inst.modulus) << 48));
            out.absorb = true;
            break;
          case IrOp::Auto: {
            // Compositional rotation semantics (see SemVal): resolve the
            // chain root and the accumulated element mod 2N, then hash
            // (root, element) — so the value is invariant under any
            // partial sigma-composition the rotalg pass performs.
            const u64 two_n = u64(prog.degree) * 2;
            int root_id = inst.a;
            u64 elt = two_n != 0 ? inst.imm % two_n : inst.imm;
            if (a.rotRootId >= 0 && a.rotMod == inst.modulus &&
                two_n != 0) {
                root_id = a.rotRootId;
                elt = elt * a.rotElt % two_n;
            }
            const SemVal root = root_id >= 0 ? vals[root_id] : SemVal{};
            if (elt == 1) {
                // Identity rotation: the pass folds it to a Copy of the
                // root, so the interpreter must yield the root verbatim
                // (absorb flag and provenance included).
                out = root;
            } else {
                out.v = mix64(0x4175746fULL ^ root.v ^ mix64(elt) ^
                              (u64(inst.modulus) << 48));
                out.rotRootId = root_id;
                out.rotElt = elt;
                out.rotMod = inst.modulus;
            }
            break;
          }
        }
        vals[i] = out;
    }
    return mem;
}

// --- Random program generator ---------------------------------------------

enum class GenMode {
    kArithmetic,  ///< no iNTT-rooted Normal scales: exact arithmetic
    kScaleChains, ///< deliberately stacks Eq. 5-foldable scale chains
};

constexpr uint32_t kModuli = 3;

/** Seeded random IR program builder. */
class ProgramGen
{
  public:
    ProgramGen(uint64_t seed, GenMode mode, size_t target_insts)
        : rng_(seed), mode_(mode), target_(target_insts)
    {
        prog_.name = "fuzz";
        prog_.degree = size_t(1) << (8 + rng_.uniform(3)); // 256..1024
        prog_.lanes = 64;
        mutable_objs_.push_back(prog_.addObject("mem0", 8, false));
        mutable_objs_.push_back(prog_.addObject("mem1", 8, false));
        ro_obj_ = prog_.addObject("keys", 8, true);
    }

    IrProgram
    build()
    {
        // Seed every modulus pool so binary ops always have operands.
        for (uint32_t m = 0; m < kModuli; ++m)
            emitLoad(m);
        while (prog_.insts.size() < target_)
            emitRandom();
        // Keep results observable: store a handful of live values.
        const size_t n_stores = 1 + rng_.uniform(3);
        for (size_t s = 0; s < n_stores; ++s)
            emitStore();
        return std::move(prog_);
    }

  private:
    /** A random value id of modulus `m` (pools are never empty). */
    int
    pick(uint32_t m)
    {
        const std::vector<int> &p = pool_[m];
        return p[rng_.uniform(p.size())];
    }

    /** A random *untainted* (never iNTT-derived) value, or -1. */
    int
    pickUntainted(uint32_t m)
    {
        const std::vector<int> &p = pool_[m];
        for (int attempt = 0; attempt < 8; ++attempt) {
            int v = p[rng_.uniform(p.size())];
            if (!tainted_[v])
                return v;
        }
        return -1;
    }

    int
    record(int id, uint32_t m, bool taint)
    {
        pool_[m].push_back(id);
        tainted_.resize(prog_.insts.size(), 0);
        tainted_[id] = taint ? 1 : 0;
        return id;
    }

    int
    emitLoad(uint32_t m)
    {
        IrInst inst;
        inst.op = IrOp::Load;
        inst.modulus = m;
        const bool read_only = rng_.uniform(3) == 0;
        const int obj = read_only
                            ? ro_obj_
                            : mutable_objs_[rng_.uniform(
                                  mutable_objs_.size())];
        inst.mem = {obj, int(rng_.uniform(8))};
        return record(prog_.emit(inst), m, false);
    }

    void
    emitStore()
    {
        const uint32_t m = uint32_t(rng_.uniform(kModuli));
        IrInst inst;
        inst.op = IrOp::Store;
        inst.a = pick(m);
        inst.modulus = m;
        inst.mem = {mutable_objs_[rng_.uniform(mutable_objs_.size())],
                    int(rng_.uniform(8))};
        prog_.emit(inst);
    }

    u64
    randomImm()
    {
        // Includes 0 and 1 so the identity folds fire.
        static constexpr u64 imms[] = {0, 1, 1, 2, 3, 5, 9, 257};
        return imms[rng_.uniform(sizeof(imms) / sizeof(imms[0]))];
    }

    void
    emitRandom()
    {
        const uint32_t m = uint32_t(rng_.uniform(kModuli));
        const uint32_t roll = uint32_t(rng_.uniform(24));
        IrInst inst;
        inst.modulus = m;
        bool taint = false;

        if (roll < 3) { // load
            emitLoad(m);
            return;
        }
        if (roll < 5) { // store (mid-program: exercises alias ordering)
            emitStore();
            return;
        }
        if (roll < 10) { // vector add/sub/mul
            inst.op = roll < 7 ? IrOp::Add
                               : (roll < 9 ? IrOp::Mul : IrOp::Sub);
            inst.a = pick(m);
            inst.b = pick(m);
            // Occasional BConv tag, on vector multiplies only (Fig. 3
            // bookkeeping). Not on Add/Sub: MAC fusion keeps a tagged
            // Add's BConv tag while fusing a Normal single-use scale,
            // which legitimately moves the scale out of the Eq. 5
            // absorbed class — a representative change the structural
            // counting model does not rank, so the generator keeps
            // adds Normal and the interpreter stays decisive.
            if (inst.op == IrOp::Mul && rng_.uniform(4) == 0)
                inst.tag = IrTag::BConv;
            taint = tainted_[inst.a] || tainted_[inst.b];
        } else if (roll < 12) { // fused MAC, as the peephole would emit
            inst.op = IrOp::Mac;
            inst.a = pick(m);
            inst.c = pick(m);
            if (rng_.uniform(2) == 0) {
                inst.useImm = true;
                inst.imm = randomImm();
                // An immediate MAC models a fused Normal scale; keep
                // its `a` leg un-absorbable so the interpreter's
                // absorb rule matches what fusion could produce.
                if (mode_ == GenMode::kArithmetic || tainted_[inst.a]) {
                    inst.useImm = false;
                    inst.b = pick(m);
                }
            }
            if (!inst.useImm)
                inst.b = pick(m);
            taint = true; // conservative
        } else if (roll < 15) { // immediate add/sub
            inst.op = rng_.uniform(2) == 0 ? IrOp::Add : IrOp::Sub;
            inst.a = pick(m);
            inst.useImm = true;
            inst.imm = randomImm();
            taint = tainted_[inst.a];
        } else if (roll < 18) { // immediate multiply (always Normal tag)
            inst.op = IrOp::Mul;
            inst.a = pick(m);
            if (mode_ == GenMode::kArithmetic) {
                const int v = pickUntainted(m);
                if (v < 0) {
                    // Nothing untainted around: emit a vector mul
                    // instead of an unrepresentable scale.
                    inst.b = pick(m);
                    taint = tainted_[inst.a] || tainted_[inst.b];
                    prog_.emit(inst);
                    record(int(prog_.insts.size()) - 1, m, taint);
                    return;
                }
                inst.a = v;
            }
            inst.useImm = true;
            inst.imm = randomImm();
            taint = tainted_[inst.a];
        } else if (roll < 20) { // NTT / iNTT
            inst.op = rng_.uniform(2) == 0 ? IrOp::Ntt : IrOp::Intt;
            inst.a = pick(m);
            taint = inst.op == IrOp::Intt || tainted_[inst.a];
            if (mode_ == GenMode::kScaleChains && inst.op == IrOp::Intt &&
                rng_.uniform(2) == 0) {
                // Stack 1-3 single-use Normal scales on the iNTT: the
                // Eq. 5 ladder the fixed point collapses link by link.
                int v = prog_.emit(inst);
                record(v, m, true);
                const size_t links = 1 + rng_.uniform(3);
                for (size_t link = 0; link < links; ++link) {
                    IrInst scale;
                    scale.op = IrOp::Mul;
                    scale.a = v;
                    scale.useImm = true;
                    scale.imm = 3 + 2 * rng_.uniform(8);
                    scale.modulus = m;
                    v = prog_.emit(scale);
                    record(v, m, true);
                }
                return;
            }
        } else if (roll < 22) { // rotation (automorphism)
            inst.op = IrOp::Auto;
            inst.a = pick(m);
            inst.useImm = true;
            inst.imm = 2 * rng_.uniform(prog_.degree / 2) + 1;
            taint = tainted_[inst.a];
            if (rng_.uniform(2) == 0) {
                // Serial sigma-chain v_{s+1} = sigma_g(v_s): the shape
                // rotalg composes, identity-folds (odd elements cycle,
                // so accumulated products hit 1 mod 2N), and retires as
                // dead rotations once composition bypasses the links.
                int v = record(prog_.emit(inst), m, taint);
                const size_t links = 1 + rng_.uniform(3);
                for (size_t link = 0; link < links; ++link) {
                    IrInst rot;
                    rot.op = IrOp::Auto;
                    rot.a = v;
                    rot.useImm = true;
                    rot.imm = 2 * rng_.uniform(prog_.degree / 2) + 1;
                    rot.modulus = m;
                    v = record(prog_.emit(rot), m, taint);
                }
                return;
            }
        } else if (roll < 23) { // copy chain fodder
            inst.op = IrOp::Copy;
            inst.a = pick(m);
            taint = tainted_[inst.a];
        } else { // exact duplicate of an earlier pure op (CSE fodder)
            const int v = pick(m);
            const IrInst &src = prog_.insts[v];
            if (src.op == IrOp::Load &&
                !prog_.objects[src.mem.object].readOnly) {
                // Duplicating a mutable load could observe an
                // intervening store; duplicate as a Copy instead.
                inst.op = IrOp::Copy;
                inst.a = v;
                taint = tainted_[v];
            } else {
                inst = src;
                taint = tainted_[v];
            }
        }
        const int id = prog_.emit(inst);
        record(id, m, taint);
    }

    Rng rng_;
    GenMode mode_;
    size_t target_;
    IrProgram prog_;
    std::vector<std::vector<int>> pool_ =
        std::vector<std::vector<int>>(kModuli);
    std::vector<uint8_t> tainted_;
    std::vector<int> mutable_objs_;
    int ro_obj_ = -1;
};

// --- The legacy single-sweep oracle ---------------------------------------

/**
 * The pre-pass-manager optimization sequence, verbatim: one hardcoded
 * sweep with the special-cased extra copy-prop after the peephole.
 */
void
legacyOptimize(IrProgram &prog, const PassSwitches &sw, StatSet &stats)
{
    if (sw.copyProp)
        runCopyProp(prog, stats);
    if (sw.constProp)
        runConstProp(prog, stats);
    if (sw.pre)
        runPre(prog, stats);
    if (sw.peephole) {
        runPeephole(prog, stats);
        runCopyProp(prog, stats);
    }
    prog.compact();
}

/** A fixed-point run of pipeline `spec` at the default sweep bound. */
void
fixedPointOptimize(IrProgram &prog, const std::string &spec,
                   StatSet &stats)
{
    PassManager pm = PassManager::fromSpec(spec);
    // Every randomized pipeline run is checkpointed: a pass that leaves
    // malformed IR on any generated program panics here, naming itself.
    pm.setVerifyLevel(1);
    pm.run(prog, stats);
    ASSERT_TRUE(pm.converged()) << "pipeline did not converge";
    prog.compact();
}

/** The rotalg-bearing pipeline, as `Platform::optimizedOptions` orders
 *  it (composition before PRE so net elements are canonical). */
constexpr const char *kRotalgSpec = "copyprop,constprop,rotalg,pre,peephole";

/** Switch presets swept per seed: each runs the legacy sweep against
 *  the fixed point of its derived spec. */
std::vector<PassSwitches>
switchPresets(Rng &rng)
{
    std::vector<PassSwitches> presets;
    PassSwitches full; // all four passes on
    presets.push_back(full);
    PassSwitches mad = full;
    mad.peephole = false;
    presets.push_back(mad);
    PassSwitches peep_only = full;
    peep_only.copyProp = peep_only.constProp = peep_only.pre = false;
    presets.push_back(peep_only);
    PassSwitches coin; // one random corner per seed
    coin.copyProp = rng.uniform(2) == 0;
    coin.constProp = rng.uniform(2) == 0;
    coin.pre = rng.uniform(2) == 0;
    coin.peephole = rng.uniform(2) == 0;
    presets.push_back(coin);
    return presets;
}

void
checkSemanticEquivalence(uint64_t seed, GenMode mode, size_t target_insts)
{
    IrProgram original =
        ProgramGen(seed, mode, target_insts).build();
    const std::map<MemKey, u64> mem_original = interpret(original);
    ASSERT_FALSE(mem_original.empty()) << "seed " << seed;

    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    size_t preset_idx = 0;
    for (const PassSwitches &sw : switchPresets(rng)) {
        const std::string tag = "seed " + std::to_string(seed) +
                                " preset " + std::to_string(preset_idx++);
        StatSet stats;
        IrProgram legacy = original;
        legacyOptimize(legacy, sw, stats);
        IrProgram fixed_point = original;
        fixedPointOptimize(fixed_point, specFromSwitches(sw), stats);

        EXPECT_EQ(interpret(legacy), mem_original) << tag;
        EXPECT_EQ(interpret(fixed_point), mem_original) << tag;
        // The fixed point never ends with more instructions than the
        // single sweep (it subsumes it).
        EXPECT_LE(fixed_point.liveCount(), legacy.liveCount()) << tag;
    }

    // The rotalg pipeline (no legacy sweep to compare with): the
    // algebraic rewrites must preserve the memory image and never grow
    // the program (in-place rewrites + Auto-restricted DCE only).
    const std::string rtag = "seed " + std::to_string(seed) + " rotalg";
    StatSet rot_stats;
    IrProgram rotalg_opt = original;
    fixedPointOptimize(rotalg_opt, kRotalgSpec, rot_stats);
    EXPECT_EQ(interpret(rotalg_opt), mem_original) << rtag;
    EXPECT_LE(rotalg_opt.liveCount(), original.liveCount()) << rtag;
}

/** PRE against the reference scan on one generated program: raw, and at
 *  every PRE step of the two PRE-bearing pipeline shapes. */
void
checkPreMatchesReference(const IrProgram &prog, const std::string &tag)
{
    for (const char *spec :
         {"pre", "copyprop,constprop,pre,peephole", kRotalgSpec})
        expectPreMatchesReference(prog, spec, tag + " / " + spec);
}

// --- Simulator differential -----------------------------------------------

/** Random hardware shape: unit counts, window, SRAM budget, bandwidth. */
HardwareConfig
randomHardware(Rng &rng)
{
    HardwareConfig hw = HardwareConfig::asicEffact27();
    hw.lanes = 256;
    hw.nttUnits = 1 + rng.uniform(3);
    hw.mulUnits = 1 + rng.uniform(3);
    hw.addUnits = 1 + rng.uniform(3);
    hw.autoUnits = 1 + rng.uniform(2);
    hw.nttMacReuse = rng.uniform(2) == 0;
    static constexpr size_t windows[] = {1, 2, 7, 32, 256};
    hw.issueWindow = windows[rng.uniform(5)];
    static constexpr double bandwidths[] = {2.4e11, 1.0e12, 1.2e12};
    hw.hbmBytesPerSec = bandwidths[rng.uniform(3)];
    // Random SRAM budget, down to spill-heavy handfuls of registers
    // (the program degree is at most 1024 -> 8 KB residues).
    hw.sramBytes = size_t(16 + rng.uniform(512)) << 10; // 16 KB..528 KB
    return hw;
}

void
checkSimulatorEquivalence(uint64_t seed, size_t target_insts)
{
    const GenMode mode =
        seed % 2 == 0 ? GenMode::kArithmetic : GenMode::kScaleChains;
    IrProgram prog = ProgramGen(seed, mode, target_insts).build();

    Rng rng(seed ^ 0xda3e39cb94b95bdbULL);
    HardwareConfig hw = randomHardware(rng);
    // The draw sequence (four pass switches, schedule on/off,
    // streaming, FIFO depth, latency weights, spill policy, rotalg
    // pipeline) is part of each seed's identity: reordering or dropping
    // a draw changes the configuration every later seed samples.
    PassSwitches sw;
    sw.copyProp = rng.uniform(2) == 0;
    sw.constProp = rng.uniform(2) == 0;
    sw.pre = rng.uniform(2) == 0;
    sw.peephole = rng.uniform(2) == 0;
    const bool schedule = rng.uniform(2) == 0;
    CompilerOptions opts;
    opts.streaming = rng.uniform(2) == 0;
    opts.fifoDepth = 1 + rng.uniform(128);
    // Back-end policy sampling: all three schedulers, both allocators,
    // and (half the time) the rotalg-bearing pipeline — every
    // combination must satisfy the event-vs-reference contract.
    const bool latency = rng.uniform(2) == 0;
    opts.scheduler = !schedule ? Scheduler::ProgramOrder
                     : latency ? Scheduler::Latency
                               : Scheduler::CriticalPath;
    opts.regalloc = rng.uniform(2) == 0 ? RegAllocPolicy::Priority
                                        : RegAllocPolicy::Linear;
    opts.pipeline =
        rng.uniform(2) == 0 ? kRotalgSpec : specFromSwitches(sw);
    opts.sramBytes = hw.sramBytes;
    opts.issueWindow = hw.issueWindow;
    opts.lanes = hw.lanes;
    opts.hbmBytesPerCycle = hw.hbmBytesPerCycle();
    // Fully verified compiles: IR checked at every pass boundary and
    // the machine program at back-end exit, for every random shape.
    opts.verifyLevel = 1;

    Compiler compiler(opts);
    MachineProgram mp = compiler.compile(prog);
    ASSERT_FALSE(mp.insts.empty()) << "seed " << seed;

    Simulator sim(hw);
    const SimReport ev = sim.run(mp);
    const SimReport ref = referenceSimulate(hw, mp);
    const std::string tag = "seed " + std::to_string(seed);
    EXPECT_DOUBLE_EQ(ev.cycles, ref.cycles) << tag;
    EXPECT_DOUBLE_EQ(ev.dramBytes, ref.dramBytes) << tag;
    EXPECT_DOUBLE_EQ(ev.dramUtil, ref.dramUtil) << tag;
    EXPECT_DOUBLE_EQ(ev.nttUtil, ref.nttUtil) << tag;
    EXPECT_DOUBLE_EQ(ev.mulAddUtil, ref.mulAddUtil) << tag;
    EXPECT_DOUBLE_EQ(ev.autoUtil, ref.autoUtil) << tag;
    EXPECT_EQ(ev.instructions, ref.instructions) << tag;
}

// --- SIMD tier differential ------------------------------------------------

/**
 * Runs a random chain of RnsPoly / BConv operations under a randomly
 * sampled SIMD tier and replays the identical chain under the scalar
 * oracle tier; every limb must match exactly (common/simd.h's
 * exact-value contract, end-to-end rather than per kernel —
 * test_simd_kernels.cc covers the per-kernel pin).
 */
void
checkSimdTierEquivalence(uint64_t seed, size_t degree)
{
    Rng plan_rng(seed * 2 + 1);
    const std::vector<SimdTier> tiers = [] {
        std::vector<SimdTier> t;
        for (int i = 1; i <= static_cast<int>(maxSupportedSimdTier()); ++i)
            t.push_back(static_cast<SimdTier>(i));
        return t;
    }();
    if (tiers.empty())
        GTEST_SKIP() << "host has no vector tier; nothing to sample";
    const SimdTier tier = tiers[plan_rng.uniform(tiers.size())];
    const size_t limbs = 2 + plan_rng.uniform(3);
    const unsigned bits = 35 + unsigned(plan_rng.uniform(16)); // 35..50
    const int steps = 3 + int(plan_rng.uniform(6));

    auto run = [&](SimdTier active) {
        const SimdTier prev = activeSimdTier();
        setSimdTier(active);
        auto from = std::make_shared<RnsBasis>(
            degree, genNttPrimes(limbs, bits, degree));
        auto to = std::make_shared<RnsBasis>(
            degree, genNttPrimes(limbs, bits, degree, from->primes()));
        BaseConverter bc(from, to);
        Rng rng(seed);
        RnsPoly a(from, PolyFormat::Coeff), b(from, PolyFormat::Coeff);
        a.sampleUniform(rng);
        b.sampleUniform(rng);
        Rng op_rng(seed + 17);
        for (int s = 0; s < steps; ++s) {
            switch (op_rng.uniform(6)) {
              case 0: a.addInPlace(b); break;
              case 1: a.subInPlace(b); break;
              case 2: a.negInPlace(); break;
              case 3: a.mulScalarU64(op_rng.next()); break;
              case 4: {
                a.toEval();
                RnsPoly fb = b;
                fb.toEval();
                a.mulEvalInPlace(fb);
                a.toCoeff();
                break;
              }
              default: {
                RnsPoly fa = a;
                fa.toEval();
                fa.toCoeff();
                a = fa;
                break;
              }
            }
        }
        std::vector<std::vector<u64>> out;
        for (const RnsPoly &p :
             {bc.convert(a), bc.convertExact(a), bc.convertMontgomery(a, true)})
            for (size_t j = 0; j < p.limbCount(); ++j)
                out.emplace_back(p.limb(j).begin(), p.limb(j).end());
        for (size_t j = 0; j < a.limbCount(); ++j)
            out.emplace_back(a.limb(j).begin(), a.limb(j).end());
        setSimdTier(prev);
        return out;
    };

    ASSERT_EQ(run(SimdTier::Scalar), run(tier))
        << "seed " << seed << " tier " << simdTierName(tier) << " limbs "
        << limbs << " bits " << bits;
}

// --- Fast suites (~200 seeds each check) ----------------------------------

TEST(FuzzDifferential, SimdTierMatchesScalarOracle)
{
    for (uint64_t seed = 0; seed < 40; ++seed)
        checkSimdTierEquivalence(seed, 128);
}

TEST(SlowFuzz, SimdTierMatchesScalarOracleLarge)
{
    for (uint64_t seed = 400; seed < 480; ++seed)
        checkSimdTierEquivalence(seed, 1024);
}

TEST(FuzzDifferential, PipelineMatchesLegacySweepArithmetic)
{
    for (uint64_t seed = 0; seed < 100; ++seed)
        checkSemanticEquivalence(seed, GenMode::kArithmetic, 80);
}

TEST(FuzzDifferential, PipelineMatchesLegacySweepScaleChains)
{
    for (uint64_t seed = 1000; seed < 1100; ++seed)
        checkSemanticEquivalence(seed, GenMode::kScaleChains, 80);
}

TEST(FuzzDifferential, EventCoreMatchesReferenceSimulator)
{
    for (uint64_t seed = 0; seed < 200; ++seed)
        checkSimulatorEquivalence(seed, 120);
}

TEST(FuzzDifferential, PreMatchesReferenceScan)
{
    // Every program of the three fast suites above, in their seeds,
    // modes and sizes.
    for (uint64_t seed = 0; seed < 100; ++seed)
        checkPreMatchesReference(
            ProgramGen(seed, GenMode::kArithmetic, 80).build(),
            "arithmetic seed " + std::to_string(seed));
    for (uint64_t seed = 1000; seed < 1100; ++seed)
        checkPreMatchesReference(
            ProgramGen(seed, GenMode::kScaleChains, 80).build(),
            "scale-chains seed " + std::to_string(seed));
    for (uint64_t seed = 0; seed < 200; ++seed) {
        const GenMode mode =
            seed % 2 == 0 ? GenMode::kArithmetic : GenMode::kScaleChains;
        checkPreMatchesReference(ProgramGen(seed, mode, 120).build(),
                                 "simulator seed " + std::to_string(seed));
    }
}

// --- Slow sweep (ctest -C slow -L slow) -----------------------------------

TEST(SlowFuzz, PipelineMatchesLegacySweepLarge)
{
    for (uint64_t seed = 5000; seed < 6200; ++seed) {
        checkSemanticEquivalence(seed, GenMode::kArithmetic, 600);
        checkSemanticEquivalence(seed, GenMode::kScaleChains, 600);
    }
}

TEST(SlowFuzz, EventCoreMatchesReferenceSimulatorLarge)
{
    for (uint64_t seed = 9000; seed < 11000; ++seed)
        checkSimulatorEquivalence(seed, 1000);
}

} // namespace
} // namespace effact
