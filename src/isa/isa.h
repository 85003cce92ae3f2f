/**
 * @file
 * The EFFACT vector ISA (Table II): residue-polynomial-level instructions
 * executed by the accelerator. One instruction operates on one residue
 * polynomial of N coefficients, vectorized over `lanes` hardware lanes.
 *
 * Machine instructions are the post-compilation form: operands are SRAM
 * register ids (the compiler splits on-chip SRAM into residue-polynomial-
 * sized registers, Sec. IV-B2) or streaming FIFO tokens (Sec. IV-B3), and
 * loads/stores carry HBM addresses.
 */
#ifndef EFFACT_ISA_ISA_H
#define EFFACT_ISA_ISA_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "math/mod_arith.h"

namespace effact {

/** Machine opcodes, Table II. */
enum class Opcode : uint8_t {
    MMUL,     ///< modular multiply (vector x vector or x immediate)
    MMAD,     ///< modular add (vector + vector or + immediate)
    MSUB,     ///< modular subtract (encoded as MMAD with negation flag)
    MMAC,     ///< fused multiply-accumulate (executes on reused NTT units)
    NTT,      ///< forward NTT on one residue
    INTT,     ///< inverse NTT on one residue
    AUTO,     ///< automorphism (fixed network + auto-mapping units)
    LOAD_RES, ///< load a residue from HBM into SRAM
    STORE_RES,///< store a residue from SRAM to HBM
    VEC_COPY, ///< move a residue between on-chip SRAM registers
};

/** Operand kinds for machine instructions. */
enum class OperandKind : uint8_t {
    None,
    Reg,    ///< SRAM register (one residue polynomial)
    Stream, ///< streaming FIFO operand fed straight from HBM or an FU
    Imm,    ///< scalar immediate broadcast over the residue
};

/**
 * One machine operand: the value type `MachInst`'s accessors return and
 * its setters take. Instructions do not store `Operand`s; see
 * `MachInst` for the encoding.
 */
struct Operand
{
    OperandKind kind = OperandKind::None;
    bool dram = false; ///< Stream operand fed from DRAM (vs FU FIFO)
    int reg = -1;      ///< register id for Reg
    /**
     * Imm: the immediate. Stream: the FIFO token, or for a DRAM stream
     * the HBM address in residue units (bytes / residueBytes).
     */
    u64 value = 0;

    static Operand none() { return {}; }
    static Operand regOp(int r) { return {OperandKind::Reg, false, r, 0}; }
    static Operand stream(u64 token, bool from_dram = false)
    {
        return {OperandKind::Stream, from_dram, -1, token};
    }
    static Operand imm(u64 v) { return {OperandKind::Imm, false, -1, v}; }
};

/**
 * A machine instruction in 40 bytes. `op`, `modulus` and `irId` are
 * plain fields; the four operands and the two 64-bit fields are encoded
 * and go through the accessors:
 *
 *  - one 64-bit payload: `imm()` on compute ops, `hbmAddr()` on
 *    LOAD_RES/STORE_RES (the other reads 0). An `Imm` operand has no
 *    storage of its own and reads the payload, so on a compute op
 *    `imm()` and every `Imm` operand are one value.
 *  - four 32-bit operand slots (dest, src0, src1, src2), each holding
 *    a register id, a FIFO token, or a DRAM stream's HBM address in
 *    residue units, with the slot's kind and DRAM flag in the bytes
 *    after `op`.
 *
 * Setters panic on a value the encoding cannot hold (a stream value
 * past 32 bits, an immediate on a memory op, an address on a compute
 * op) rather than truncate it.
 */
class MachInst
{
  public:
    /** Operand slot indices, in encoding and `packedWords()` order. */
    enum Slot : int { kDest = 0, kSrc0, kSrc1, kSrc2, kSlots };
    /** Words in `packedWords()`. */
    static constexpr int kPackedWords = 5;

    uint32_t modulus = 0; ///< limb prime index (selects FU constants)
    int irId = -1;        ///< originating IR value (debug/stats)
    Opcode op = Opcode::MMUL;

    MachInst() = default;
    /** `op` with its operands, stored through `setOperand`. */
    MachInst(Opcode opcode, const Operand &dest,
             const Operand &src0 = Operand::none(),
             const Operand &src1 = Operand::none(),
             const Operand &src2 = Operand::none());

    /** The operand in `slot` (a `Slot`). */
    Operand
    operand(int slot) const
    {
        const uint32_t w = slot_[slot];
        switch (kind_[slot]) {
          case OperandKind::Reg:
            return Operand::regOp(static_cast<int>(w));
          case OperandKind::Stream:
            return Operand::stream(w, (dram_ >> slot) & 1);
          case OperandKind::Imm:
            return Operand::imm(payload_);
          case OperandKind::None:
            break;
        }
        return Operand::none();
    }
    Operand dest() const { return operand(kDest); }
    Operand src0() const { return operand(kSrc0); }
    Operand src1() const { return operand(kSrc1); }
    /**
     * Third source: the MMAC accumulator (`dest = src0 * src1 + src2`).
     * Like any vector source it may be a register, an FU-to-FU FIFO
     * token, or a DRAM stream — which is what lets fused MAC chains ride
     * the FIFOs end to end instead of pinning an SRAM register per
     * chain. `None` on every other opcode; the destination is always
     * write-only.
     */
    Operand src2() const { return operand(kSrc2); }

    /** Stores `o` in `slot`; panics if the slot cannot hold it. */
    void setOperand(int slot, const Operand &o);
    void setDest(const Operand &o) { setOperand(kDest, o); }
    void setSrc0(const Operand &o) { setOperand(kSrc0, o); }
    void setSrc1(const Operand &o) { setOperand(kSrc1, o); }
    void setSrc2(const Operand &o) { setOperand(kSrc2, o); }

    /** Automorphism Galois element, scalar constant, etc. (compute ops). */
    u64 imm() const { return isMemoryOp() ? 0 : payload_; }
    /** HBM byte address of LOAD_RES/STORE_RES. */
    u64 hbmAddr() const { return isMemoryOp() ? payload_ : 0; }
    void setImm(u64 v);
    void setHbmAddr(u64 addr);

    // --- Edge accessors (dependence construction / resource decode) ----

    /** LOAD_RES or STORE_RES: the payload is `hbmAddr()`. */
    bool
    isMemoryOp() const
    {
        return op == Opcode::LOAD_RES || op == Opcode::STORE_RES;
    }

    /** Defines its destination register/FIFO token (stores do not). */
    bool writesDest() const { return op != Opcode::STORE_RES; }

    /** Number of source operands streaming from DRAM (0 to 3). */
    int
    dramStreamSources() const
    {
        return ((dram_ >> kSrc0) & 1) + ((dram_ >> kSrc1) & 1) +
               ((dram_ >> kSrc2) & 1);
    }

    /**
     * The whole instruction as five 64-bit words, read straight from
     * the encoding, each field in its own bit range (what
     * `fingerprint()` hashes):
     *
     *  0. `op` (bits 0-7), slot s's kind (bits 8+2s, 9+2s), slot s's
     *     DRAM flag (bit 16+s), `modulus` (bits 32-63);
     *  1. the dest slot word (bits 0-31) and the src0 slot word
     *     (bits 32-63);
     *  2. the src1 and src2 slot words, likewise;
     *  3. the payload (`imm()` or `hbmAddr()`);
     *  4. `irId` as 32 bits.
     *
     * A slot word is a register id, a FIFO token or a DRAM stream's
     * address in residue units; None and Imm slots hold 0 (an Imm
     * operand reads the payload). Equal words mean equal instructions.
     */
    std::array<u64, kPackedWords>
    packedWords() const
    {
        u64 head = static_cast<u64>(op) | u64(dram_) << 16 |
                   u64(modulus) << 32;
        for (int s = 0; s < kSlots; ++s)
            head |= u64(kind_[s]) << (8 + 2 * s);
        return {head, u64(slot_[kDest]) | u64(slot_[kSrc0]) << 32,
                u64(slot_[kSrc1]) | u64(slot_[kSrc2]) << 32, payload_,
                static_cast<uint32_t>(irId)};
    }

  private:
    static_assert(static_cast<int>(OperandKind::Imm) < 4,
                  "an operand kind must fit its two bits of word 0");

    uint8_t dram_ = 0; ///< bit s: slot s is a DRAM stream
    OperandKind kind_[kSlots] = {};
    u64 payload_ = 0;
    uint32_t slot_[kSlots] = {};
};

static_assert(sizeof(MachInst) <= 48, "MachInst grew past 48 bytes");

/** Largest spill-reload scratch pool the register allocator reserves;
 *  the machine verifier rejects a larger one (`mach.scratch.pool`). */
constexpr size_t kMaxScratchRegs = 4;

/** A compiled machine program plus metadata the simulator needs. */
struct MachineProgram
{
    std::vector<MachInst> insts;
    size_t numRegs = 0;        ///< SRAM registers used
    size_t residueBytes = 0;   ///< bytes per residue polynomial
    size_t spillLoads = 0;     ///< regalloc-inserted reloads
    size_t spillStores = 0;    ///< regalloc-inserted spills
    size_t streamedOps = 0;    ///< operands converted to streaming

    /**
     * Registers at the top of the file reserved as the spill-reload
     * scratch pool (0 = unknown, e.g. a hand-built test program), at
     * most `kMaxScratchRegs`. Not part of `fingerprint()`: it describes
     * the allocator's partition of the register file, not the
     * instruction stream, and the checked-in bench baselines pin the
     * fingerprint.
     */
    size_t scratchRegs = 0;
};

/**
 * Order-sensitive 64-bit fingerprint over the program metadata and the
 * instruction stream (`scratchRegs` is excluded), through the
 * `WordHash` of `common/hash.h`, the same scheme as
 * `fingerprint(IrProgram)`. A header hash takes the metadata; each
 * instruction's `MachInst::packedWords()` word k feeds accumulator k,
 * so the five multiply chains run side by side; the header then mixes
 * the five accumulators' `finish()` values. A DRAM stream's word is
 * its address in residue units, injective given `residueBytes`, which
 * the header hashes. Every step is a bijection, so changing any
 * single field always moves the result. Two programs fingerprint
 * equal iff codegen emitted the same instruction stream, so batch
 * determinism tests can compare compiles across thread counts without
 * holding every `MachineProgram` in memory.
 */
uint64_t fingerprint(const MachineProgram &prog);

/** Mnemonic for an opcode. */
const char *opcodeName(Opcode op);

/** Human-readable disassembly of one instruction. */
std::string disassemble(const MachInst &inst);

/** Disassembles a whole program (for tests and debugging). */
std::string disassemble(const MachineProgram &prog, size_t limit = 0);

} // namespace effact

#endif // EFFACT_ISA_ISA_H
