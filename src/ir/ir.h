/**
 * @file
 * SSA intermediate representation at the residue-polynomial level
 * (Sec. IV-B). HE primitives are lowered to vector instructions over
 * single residues; the compiler optimizes this form and then allocates
 * SRAM registers and emits machine code.
 */
#ifndef EFFACT_IR_IR_H
#define EFFACT_IR_IR_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "math/mod_arith.h"

namespace effact {

/** IR operations (pre-scheduling form of the ISA). */
enum class IrOp : uint8_t {
    Load,  ///< read a residue from an HBM object
    Store, ///< write a residue to an HBM object
    Mul,   ///< modular multiply (second arg may be an immediate)
    Add,   ///< modular add
    Sub,   ///< modular subtract
    Mac,   ///< fused multiply-add (created by the peephole merge)
    Ntt,   ///< forward NTT
    Intt,  ///< inverse NTT
    Auto,  ///< automorphism
    Copy,  ///< residue copy
};

/**
 * Instruction tag: which HE-level construct the instruction came from.
 * This is what Fig. 3 plots (BConv's MULT/ADD counted separately).
 */
enum class IrTag : uint8_t {
    Normal, ///< normal MULT/ADD and everything else
    BConv,  ///< part of a base conversion
};

/** Symbolic HBM location: an object (ciphertext/key/constant) + index. */
struct MemRef
{
    int object = -1; ///< HBM object id (-1 = none)
    int index = 0;   ///< residue index inside the object

    bool operator==(const MemRef &o) const
    {
        return object == o.object && index == o.index;
    }
};

/** HBM object metadata. */
struct MemObject
{
    std::string name;
    int residues = 0;   ///< number of residue polynomials
    bool readOnly = false; ///< keys/plaintext constants
};

/**
 * One SSA instruction; its index in the program is its value id.
 * Fields are ordered to pack into 40 bytes: the 64-bit `imm` first,
 * then the five 4-byte words (`a`, `b`, `c`, `modulus`, `mem`), then
 * the four 1-byte fields in the last word. Every IR walk and the IR
 * builder's growth copy move whole instructions, and `snapshotBytes`
 * accounts them by `sizeof`. `fingerprint()` packs fields by name, so
 * the order here is free.
 */
struct IrInst
{
    u64 imm = 0;        ///< immediate scalar / Galois element
    int a = -1;         ///< first operand value id
    int b = -1;         ///< second operand value id (-1 if immediate/none)
    int c = -1;         ///< third operand (Mac accumulator only)
    uint32_t modulus = 0; ///< limb prime index
    MemRef mem;         ///< Load/Store location
    IrOp op = IrOp::Copy;
    bool useImm = false;///< second operand is `imm` instead of `b`
    IrTag tag = IrTag::Normal;
    bool dead = false;  ///< marked by passes instead of O(n) erases

    /** The operand slots (a, b, c) for uniform traversal/rewriting: a
     *  pass that resolves or counts operands must cover all three (a
     *  value can be live only as a Mac accumulator). */
    std::array<int *, 3> operandSlots() { return {&a, &b, &c}; }
    std::array<int, 3> operands() const { return {a, b, c}; }
};

static_assert(sizeof(IrInst) <= 40, "IrInst grew past 40 bytes");

/** An SSA program over residue polynomials. */
struct IrProgram
{
    std::string name;
    size_t degree = 0;   ///< ring degree N
    std::vector<IrInst> insts;
    std::vector<MemObject> objects;

    /** Creates an HBM object; returns its id. */
    int addObject(std::string obj_name, int residues, bool read_only);

    /** Appends an instruction; returns its value id. */
    int emit(IrInst inst);

    /** Number of live (non-dead) instructions: an O(n) scan. Per-pass
     *  removal counts come from `kills()` instead. */
    size_t liveCount() const;

    /**
     * Marks `inst`, one of `insts`, dead. Only a live -> dead transition
     * is counted, so the difference of two `kills()` readings is exactly
     * the number of instructions removed in between: the `PassManager`
     * reports `pass.<name>.removed` that way instead of rescanning the
     * program around every pass run. Passes remove instructions only
     * through this, never by writing `dead` directly.
     */
    void
    kill(IrInst &inst)
    {
        kills_ += inst.dead ? 0 : 1;
        inst.dead = true;
    }

    /** Live -> dead transitions made through `kill()` so far. */
    uint64_t kills() const { return kills_; }

    /**
     * Compacts dead instructions and renumbers value ids, keeping their
     * order. The result holds exactly its live instructions
     * (`insts.capacity() == insts.size()`): the `PassManager` compacts
     * after every sweep that removed instructions, and the back end and
     * the simulator keep the compacted program for the rest of the
     * job. With nothing dead it only releases spare capacity: ids and
     * `version()` stay.
     */
    void compact();

    /**
     * Mutation counter: two calls observing the same version may reuse
     * results computed at that version (the `PassManager` skips a pass
     * whose input version is unchanged since its last run, and
     * `AnalysisManager` keys its analyses on it). `emit`/`compact` bump
     * it internally; the `PassManager` calls `bumpVersion()` exactly
     * when a pass reports a change.
     */
    uint64_t version() const { return version_; }
    void bumpVersion() { ++version_; }

    /**
     * Process-unique program identity, part of the analysis cache key
     * next to `version()`. Every program object — including copies and
     * move targets — gets a fresh id, so a cache can never confuse two
     * programs that reuse an address or happen to share a mutation
     * count (e.g. successive stack-local programs in a
     * re-compilation sweep). The cost of the fresh-on-move choice is
     * only a spurious analysis rebuild, never a stale hit.
     */
    uint64_t uid() const { return uid_.value; }

    /** Op histogram over live instructions, keyed for Fig. 3. */
    StatSet opMix() const;

    /** Total bytes of all read-only objects (key/constant footprint). */
    size_t readOnlyBytes() const;

  private:
    struct UniqueId
    {
        uint64_t value = next();
        UniqueId() = default;
        UniqueId(const UniqueId &) : value(next()) {}
        UniqueId(UniqueId &&) noexcept : value(next()) {}
        UniqueId &operator=(const UniqueId &) { value = next(); return *this; }
        UniqueId &operator=(UniqueId &&) noexcept
        {
            value = next();
            return *this;
        }
        static uint64_t next()
        {
            static std::atomic<uint64_t> counter{0};
            return ++counter;
        }
    };

    UniqueId uid_;
    uint64_t version_ = 0;
    uint64_t kills_ = 0;
};

/** Name used in the Fig. 3 histogram for an instruction. */
std::string mixKey(const IrInst &inst);

/** Mnemonic for an IR operation. */
const char *irOpName(IrOp op);

/**
 * Human-readable rendering of one instruction ("Mac v3, v7, acc v1
 * [q2]"), the IR sibling of `isa`'s `disassemble`: verifier and pass
 * diagnostics use it to name the offending instruction.
 */
std::string display(const IrInst &inst);

/**
 * Order-sensitive 64-bit fingerprint over the instruction stream and
 * the semantic program metadata (degree, object shapes), through the
 * `WordHash` of `common/hash.h`, the same scheme as `isa`'s
 * `fingerprint(MachineProgram)`. A header hash takes the metadata and
 * the instruction count. Each instruction is five packed words, each
 * field in its own bit range: `imm`; `a|b`; `c|modulus`;
 * `mem.object|mem.index` (32-bit halves, low|high); and
 * `op|useImm|tag|dead` (one byte each, from bit 0). Word k of every
 * instruction feeds accumulator k, and the header mixes the five
 * accumulators' `finish()` values. Two programs fingerprint equal iff
 * they are structurally identical inputs to the compiler; display-only
 * metadata (`name`, object names) and the process-local state
 * (`uid()`, `version()`, `kills()`) are deliberately excluded, so
 * independently built copies of the same workload hash equal. This is
 * the content half of the `CompileCache` key.
 */
uint64_t fingerprint(const IrProgram &prog);

} // namespace effact

#endif // EFFACT_IR_IR_H
