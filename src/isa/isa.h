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
 * One machine operand. Fields are ordered to pack into 16 bytes (the
 * two one-byte fields share the slot before `reg`).
 */
struct Operand
{
    OperandKind kind = OperandKind::None;
    bool dram = false; ///< Stream operand fed from DRAM (vs FU FIFO)
    int reg = -1;    ///< register id for Reg
    u64 value = 0;   ///< immediate value, HBM address, or stream token

    static Operand none() { return {}; }
    static Operand regOp(int r) { return {OperandKind::Reg, false, r, 0}; }
    static Operand stream(u64 token, bool from_dram = false)
    {
        return {OperandKind::Stream, from_dram, -1, token};
    }
    static Operand imm(u64 v) { return {OperandKind::Imm, false, -1, v}; }
};
static_assert(sizeof(Operand) <= 16, "Operand grew past 16 bytes");

/**
 * A machine instruction. Fields are ordered to pack into 96 bytes: the
 * 4-byte scalars fill the slot after `op`, then the four operands and
 * the two 64-bit payloads. `fingerprint()` hashes fields by name, so
 * the order here is free.
 */
struct MachInst
{
    Opcode op = Opcode::MMUL;
    uint32_t modulus = 0; ///< limb prime index (selects FU constants)
    int irId = -1;        ///< originating IR value (debug/stats)
    Operand dest;
    Operand src0;
    Operand src1;
    /**
     * Third source: the MMAC accumulator (`dest = src0 * src1 + src2`).
     * Like any vector source it may be a register, an FU-to-FU FIFO
     * token, or a DRAM stream — which is what lets fused MAC chains ride
     * the FIFOs end to end instead of pinning an SRAM register per
     * chain. `None` on every other opcode; the destination is always
     * write-only.
     */
    Operand src2;
    u64 imm = 0;          ///< automorphism Galois element, etc.
    u64 hbmAddr = 0;      ///< HBM address for LOAD/STORE/stream fill

    // --- Edge accessors (dependence construction / resource decode) ----

    /** True iff `o` is a streaming operand fed straight from DRAM. */
    static bool dramStream(const Operand &o)
    {
        return o.kind == OperandKind::Stream && o.dram;
    }

    /** Defines its destination register/FIFO token (stores do not). */
    bool writesDest() const { return op != Opcode::STORE_RES; }

    /** Number of source operands streaming from DRAM (0 to 3). */
    int dramStreamSources() const
    {
        return (dramStream(src0) ? 1 : 0) + (dramStream(src1) ? 1 : 0) +
               (dramStream(src2) ? 1 : 0);
    }
};

static_assert(sizeof(MachInst) <= 96, "MachInst grew past 96 bytes");

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
     * scratch pool (0 = unknown, e.g. a hand-built test program). Not
     * part of `fingerprint()`: it describes the allocator's partition
     * of the register file, not the instruction stream, and the
     * checked-in bench baselines pin the fingerprint.
     */
    size_t scratchRegs = 0;
};

/**
 * Order-sensitive 64-bit fingerprint over the program metadata and, per
 * instruction, the op, each operand's {kind, reg, value, dram},
 * modulus, imm, hbmAddr and irId (`scratchRegs` is excluded): the
 * word-wise `WordHash` of `common/hash.h`, one step per field, the
 * same scheme as `fingerprint(IrProgram)`. Fields are hashed by name,
 * so a change of `MachInst`'s layout keeps every value, and changing
 * any single field always moves the result. Two programs fingerprint
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
