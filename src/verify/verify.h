/**
 * @file
 * LLVM-style well-formedness verifiers for the two program forms that
 * flow between compiler stages: the SSA `IrProgram` (checked at every
 * pass boundary and before a middle-end snapshot enters the
 * `CompileCache`) and the post-backend `MachineProgram` (checked at
 * back-end exit, before the simulator consumes it).
 *
 * The verifiers are pure: they never mutate the program and report
 * every violation they find as a structured `VerifyFinding` (stable
 * rule id, offending instruction index, human-readable message naming
 * the instruction via its disassembly/display form). Callers decide
 * the policy — the compiler's checkpoints panic on a non-empty report
 * (a pass or the backend produced malformed code, an internal bug),
 * while tests assert on exact rule ids.
 *
 * Rule catalogue (stable ids; add a rule here alongside any new pass
 * or codegen feature that introduces a new invariant):
 *
 *  IR (verifyIr):
 *   - ir.degree.pow2        program degree is a nonzero power of two
 *   - ir.object.shape       HBM object with residues <= 0
 *   - ir.operand.range      operand value id outside [-1, insts)
 *   - ir.operand.order      def-before-use: operand id >= own index
 *   - ir.operand.dead       live instruction references a dead value
 *   - ir.operand.novalue    operand references a Store (defines nothing)
 *   - ir.operand.arity      missing/extra operand for the opcode
 *   - ir.imm.exclusive      useImm set while b names a vector operand
 *   - ir.mac.conly          c operand on a non-Mac instruction
 *   - ir.mem.object         Load/Store object id outside the table
 *   - ir.mem.index          Load/Store residue index out of bounds
 *   - ir.mem.readonly       Store targets a read-only object
 *   - ir.mem.stray          non-memory instruction carries a MemRef
 *   - ir.modulus.range      limb index >= kMaxLimbIndex
 *   - ir.auto.elt           live immediate-form Auto carries a Galois
 *                           element outside [1, 2N) — the range the
 *                           rotalg pass composes/canonicalizes within
 *
 *  Machine (verifyMachine):
 *   - mach.program.meta     residueBytes/numRegs metadata malformed
 *   - mach.reg.bounds       register id outside [0, numRegs) — the
 *                           PR 4 "-1 register" bug class
 *   - mach.reg.uninit       register read before any write reaches it
 *   - mach.stream.producer  FIFO operand with no producer of its token
 *   - mach.stream.dest      malformed destination (dram-stream dest,
 *                           immediate dest, store with a dest, ...)
 *   - mach.operand.shape    per-opcode operand-kind legality
 *   - mach.scratch.pool     spill scratch pool outside the regalloc's
 *                           clamped [1, 4] range (or >= the whole pool)
 *   - mach.sram.budget      register file inconsistent with the
 *                           `HardwareConfig` SRAM capacity
 *   - mach.mem.align        LOAD_RES/STORE_RES HBM address not a
 *                           multiple of residueBytes — the regalloc's
 *                           object/spill-slot layout invariant
 *   - mach.mem.order        explicit memory accesses to one HBM address
 *                           issued inconsistently with their IR value
 *                           order (a scheduler/codegen pass dropped a
 *                           memory dependence)
 */
#ifndef EFFACT_VERIFY_VERIFY_H
#define EFFACT_VERIFY_VERIFY_H

#include <string>
#include <vector>

#include "ir/ir.h"
#include "isa/isa.h"
#include "sim/config.h"

namespace effact {

/** One invariant violation. */
struct VerifyFinding
{
    std::string rule;    ///< stable rule id (see catalogue above)
    int inst = -1;       ///< offending instruction index (-1 = program)
    std::string message; ///< diagnostic naming the instruction
};

/** Outcome of one verifier run. */
struct VerifyReport
{
    std::vector<VerifyFinding> findings;
    size_t checksRun = 0; ///< instructions x rule groups examined

    bool ok() const { return findings.empty(); }

    /** Renders up to `limit` findings, one line each ("rule @inst:
     *  message"); 0 = all. */
    std::string toString(size_t limit = 8) const;
};

/**
 * Architectural ceiling on RNS limb indices. Paper-scale modulus
 * chains stay below L + alpha + 1 ~ 31 limbs; the cap only exists to
 * catch uninitialized/corrupted `modulus` fields (e.g. 0xffffffff)
 * without ever rejecting a legitimate chain.
 */
constexpr uint32_t kMaxLimbIndex = 4096;

/** Checks SSA well-formedness of an IR program (rules `ir.*`). */
VerifyReport verifyIr(const IrProgram &prog);

/**
 * Optional machine-side budget: when `sramBytes` is nonzero the
 * verifier additionally checks the register file against the SRAM
 * capacity the backend was configured with (`mach.sram.budget`).
 */
struct MachVerifyBudget
{
    size_t sramBytes = 0; ///< 0 = skip the SRAM-consistency rule
};

/** Checks a compiled machine program (rules `mach.*`). */
VerifyReport verifyMachine(const MachineProgram &prog,
                           const MachVerifyBudget &budget = {});

/** Same, deriving the budget from a hardware configuration. */
VerifyReport verifyMachine(const MachineProgram &prog,
                           const HardwareConfig &hw);

/**
 * Panics with the report's findings (prefixed by `context`, e.g. the
 * pass that just ran) unless the report is clean. The panic message
 * names the rule, the instruction index and its display form, so a
 * broken invariant surfaces at the stage that introduced it instead of
 * as a crash deep inside `DepGraph`/the simulator.
 */
void enforceVerified(const VerifyReport &report, const char *context);

/**
 * Rich failure path for machine-code consumers (`MachineDepResolver`,
 * which `DepGraph::fromMachine` and the simulator both run, and the
 * simulator's deadlock check): verifies `prog` and panics with the full
 * report plus the disassembly of `inst` (when >= 0). Call when a
 * consumer-side sanity check already failed — it upgrades a bare assert
 * into a diagnostic that names the offending instruction and every
 * other violated invariant. Never returns.
 */
[[noreturn]] void panicMalformedMachine(const MachineProgram &prog,
                                        int inst, const char *what);

/**
 * The process-wide default verify level, read once from `EFFACT_VERIFY`
 * (unset/"0" = 0 = off; any other decimal count enables checkpoint
 * verification as level 1; anything else warns and stays off).
 * `CompilerOptions::verifyLevel` defaults to this, so exporting
 * `EFFACT_VERIFY=1` turns every compile in a test binary into a fully
 * verified one without code changes.
 */
int defaultVerifyLevel();

} // namespace effact

#endif // EFFACT_VERIFY_VERIFY_H
