/**
 * @file
 * Verifier-layer tests (verify/verify.h): one directed negative test
 * per rule id in the catalogue, randomized corruption fuzzing (every
 * injected defect must be caught), the compiler's checkpoint wiring
 * (pass boundaries, middle-end snapshot boundaries, back-end exit), the
 * PR 4 "register -1" regression class, and fully verified compiles of
 * seed workloads across the Fig. 11 presets and sweep thread counts.
 *
 * `SlowVerify*` suites re-run the verified-workload matrix at paper
 * scale; the default ctest registration filters them out.
 */
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "compiler/compile_cache.h"
#include "compiler/pass.h"
#include "compiler/pass_manager.h"
#include "ir/builder.h"
#include "ir/workloads.h"
#include "platform/platform.h"
#include "runtime/sweep.h"
#include "sched/depgraph.h"
#include "sim/machine.h"
#include "verify/verify.h"

namespace effact {
namespace {

size_t
countRule(const VerifyReport &rep, const std::string &rule)
{
    size_t n = 0;
    for (const VerifyFinding &f : rep.findings)
        n += f.rule == rule;
    return n;
}

/** Asserts the report contains `rule` and nothing but `rule`. */
void
expectOnly(const VerifyReport &rep, const std::string &rule)
{
    EXPECT_GE(countRule(rep, rule), 1u) << rep.toString();
    EXPECT_EQ(countRule(rep, rule), rep.findings.size()) << rep.toString();
}

/** Tiny well-formed program: load a, load b, t=a*b, u=t+a, store u. */
IrProgram
tinyProgram()
{
    IrProgram prog;
    prog.name = "tiny";
    prog.degree = 1 << 12;
    IrBuilder b(prog);
    int in = b.object("in", 2, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    PolyVal bb = b.load(in, 1, 1);
    PolyVal t = b.mul(a, bb);
    PolyVal u = b.add(t, a);
    b.store(out, 0, u);
    return prog;
}

/** Tiny well-formed machine program over an 8-register file. */
MachineProgram
tinyMachine()
{
    MachineProgram mp;
    mp.numRegs = 8;
    mp.residueBytes = size_t(1) << 12;
    MachInst ld0;
    ld0.op = Opcode::LOAD_RES;
    ld0.setDest(Operand::regOp(0));
    mp.insts.push_back(ld0);
    MachInst ld1;
    ld1.op = Opcode::LOAD_RES;
    ld1.setDest(Operand::regOp(1));
    mp.insts.push_back(ld1);
    MachInst mul;
    mul.op = Opcode::MMUL;
    mul.setDest(Operand::regOp(2));
    mul.setSrc0(Operand::regOp(0));
    mul.setSrc1(Operand::regOp(1));
    mp.insts.push_back(mul);
    MachInst st;
    st.op = Opcode::STORE_RES;
    st.setSrc0(Operand::regOp(2));
    mp.insts.push_back(st);
    return mp;
}

// --- IR rules: the bases are clean, each corruption trips one rule -------

TEST(IrVerifier, AcceptsWellFormedPrograms)
{
    const VerifyReport rep = verifyIr(tinyProgram());
    EXPECT_TRUE(rep.ok()) << rep.toString();
    EXPECT_GT(rep.checksRun, 0u);
}

TEST(IrVerifier, DegreePow2)
{
    IrProgram prog = tinyProgram();
    prog.degree = 3;
    expectOnly(verifyIr(prog), "ir.degree.pow2");
}

TEST(IrVerifier, ObjectShape)
{
    IrProgram prog = tinyProgram();
    prog.addObject("empty", 0, false);
    expectOnly(verifyIr(prog), "ir.object.shape");
}

TEST(IrVerifier, OperandRange)
{
    IrProgram prog = tinyProgram();
    prog.insts[2].a = 1000; // the Mul's first operand
    expectOnly(verifyIr(prog), "ir.operand.range");
}

TEST(IrVerifier, OperandOrder)
{
    IrProgram prog = tinyProgram();
    prog.insts[2].a = 3; // Mul reads the later Add: use before def
    expectOnly(verifyIr(prog), "ir.operand.order");
}

TEST(IrVerifier, OperandDead)
{
    IrProgram prog = tinyProgram();
    prog.insts[1].dead = true; // kill load b; the Mul still reads it
    expectOnly(verifyIr(prog), "ir.operand.dead");
}

TEST(IrVerifier, OperandNoValue)
{
    IrProgram prog = tinyProgram();
    IrBuilder b(prog);
    // An Add whose operand names the Store (index 4): no value there.
    b.emit1(IrOp::Add, 4, 0, 0);
    expectOnly(verifyIr(prog), "ir.operand.novalue");
}

TEST(IrVerifier, OperandArity)
{
    IrProgram prog = tinyProgram();
    prog.insts[2].a = -1; // Mul with no first operand
    expectOnly(verifyIr(prog), "ir.operand.arity");

    IrProgram prog2 = tinyProgram();
    prog2.insts[1].a = 0; // Load must not carry an operand
    expectOnly(verifyIr(prog2), "ir.operand.arity");
}

TEST(IrVerifier, ImmExclusive)
{
    IrProgram prog = tinyProgram();
    prog.insts[2].useImm = true; // b still names load 1
    expectOnly(verifyIr(prog), "ir.imm.exclusive");

    IrProgram prog2 = tinyProgram();
    IrBuilder b(prog2);
    PolyVal v{{2}};
    b.ntt(v); // Ntt has no immediate form...
    prog2.insts.back().useImm = true; // ...so useImm is illegal on it
    expectOnly(verifyIr(prog2), "ir.imm.exclusive");
}

TEST(IrVerifier, MacCOnly)
{
    IrProgram prog = tinyProgram();
    prog.insts[3].c = 0; // c on the Add
    expectOnly(verifyIr(prog), "ir.mac.conly");
}

TEST(IrVerifier, MacRequiresAccumulator)
{
    IrProgram prog = tinyProgram();
    prog.insts[3].op = IrOp::Mac; // Add -> Mac without a c operand
    expectOnly(verifyIr(prog), "ir.operand.arity");
}

TEST(IrVerifier, MemObject)
{
    IrProgram prog = tinyProgram();
    prog.insts[0].mem.object = 99;
    expectOnly(verifyIr(prog), "ir.mem.object");
}

TEST(IrVerifier, MemIndex)
{
    IrProgram prog = tinyProgram();
    prog.insts[0].mem.index = 2; // object "in" has 2 residues: 0, 1
    expectOnly(verifyIr(prog), "ir.mem.index");
}

TEST(IrVerifier, MemReadOnly)
{
    IrProgram prog = tinyProgram();
    prog.objects[1].readOnly = true; // "out", the Store target
    expectOnly(verifyIr(prog), "ir.mem.readonly");
}

TEST(IrVerifier, MemStray)
{
    IrProgram prog = tinyProgram();
    prog.insts[2].mem.object = 0; // MemRef on the Mul
    expectOnly(verifyIr(prog), "ir.mem.stray");
}

TEST(IrVerifier, ModulusRange)
{
    IrProgram prog = tinyProgram();
    prog.insts[2].modulus = kMaxLimbIndex;
    expectOnly(verifyIr(prog), "ir.modulus.range");
}

TEST(IrVerifier, AutoElt)
{
    // A Galois element lives in [1, 2N); the rotalg pass reduces every
    // composed element mod 2N, so anything outside the range is a
    // malformed rotation, not a big rotation.
    IrProgram prog = tinyProgram();
    IrBuilder b(prog);
    b.automorph(PolyVal{{2}}, 5); // rotate the Mul's limb: well-formed
    ASSERT_TRUE(verifyIr(prog).ok());
    prog.insts.back().imm = u64(prog.degree) * 2; // == 2N: out of range
    expectOnly(verifyIr(prog), "ir.auto.elt");

    IrProgram prog2 = tinyProgram();
    IrBuilder b2(prog2);
    b2.automorph(PolyVal{{2}}, 5);
    prog2.insts.back().imm = 0; // below the range
    expectOnly(verifyIr(prog2), "ir.auto.elt");
}

TEST(IrVerifier, DeadInstructionsKeepStaleOperandsSilently)
{
    // Passes mark values dead in place and leave stale operands behind;
    // the verifier must not flag them.
    IrProgram prog = tinyProgram();
    prog.insts[3].dead = true;
    prog.insts[3].a = 500;     // garbage on a dead value: fine
    prog.insts[4].dead = true; // the store of it too
    EXPECT_TRUE(verifyIr(prog).ok());
}

// --- Machine rules --------------------------------------------------------

TEST(MachVerifier, AcceptsWellFormedPrograms)
{
    const VerifyReport rep = verifyMachine(tinyMachine());
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(MachVerifier, ProgramMeta)
{
    MachineProgram mp = tinyMachine();
    mp.numRegs = 0;
    EXPECT_GE(countRule(verifyMachine(mp), "mach.program.meta"), 1u);
}

TEST(MachVerifier, RegBounds)
{
    MachineProgram mp = tinyMachine();
    mp.insts[2].setSrc0(Operand::regOp(-1)); // a negative id
    expectOnly(verifyMachine(mp), "mach.reg.bounds");

    MachineProgram mp2 = tinyMachine();
    mp2.insts[2].setSrc1(Operand::regOp(8)); // == numRegs
    expectOnly(verifyMachine(mp2), "mach.reg.bounds");
}

TEST(MachVerifier, RegUninit)
{
    MachineProgram mp = tinyMachine();
    mp.insts[2].setSrc1(Operand::regOp(5)); // nothing ever wrote r5
    expectOnly(verifyMachine(mp), "mach.reg.uninit");
}

TEST(MachVerifier, StreamProducerMissing)
{
    MachineProgram mp = tinyMachine();
    mp.insts[2].setSrc0(Operand::stream(77)); // FU FIFO with no producer
    expectOnly(verifyMachine(mp), "mach.stream.producer");
}

TEST(MachVerifier, StreamProducedTwice)
{
    // Two producers of one FIFO token before any consumer — exactly the
    // duplicated-token shape of the Mac-fusion miscompile this layer
    // was built to catch.
    MachineProgram mp = tinyMachine();
    mp.insts[0].setDest(Operand::stream(7));
    mp.insts[1].setDest(Operand::stream(7));
    mp.insts[2].setSrc0(Operand::stream(7));
    mp.insts[2].setSrc1(Operand::imm(3));
    const VerifyReport rep = verifyMachine(mp);
    EXPECT_GE(countRule(rep, "mach.stream.producer"), 1u)
        << rep.toString();
}

/** tinyMachine plus a trailing NTT of r2 whose result nothing reads —
 *  a safe victim for destination corruption (no downstream cascade). */
MachineProgram
tinyMachineWithTail()
{
    MachineProgram mp = tinyMachine();
    MachInst tail;
    tail.op = Opcode::NTT;
    tail.setDest(Operand::regOp(3));
    tail.setSrc0(Operand::regOp(2));
    mp.insts.push_back(tail);
    return mp;
}

TEST(MachVerifier, StreamDest)
{
    MachineProgram mp = tinyMachine();
    mp.insts[3].setDest(Operand::regOp(3)); // store with a destination
    expectOnly(verifyMachine(mp), "mach.stream.dest");

    MachineProgram mp2 = tinyMachineWithTail();
    mp2.insts[4].setDest(Operand::none()); // compute with no destination
    expectOnly(verifyMachine(mp2), "mach.stream.dest");

    MachineProgram mp3 = tinyMachineWithTail();
    mp3.insts[4].setDest(Operand::stream(0, /*from_dram=*/true));
    expectOnly(verifyMachine(mp3), "mach.stream.dest");

    MachineProgram mp4 = tinyMachineWithTail();
    mp4.insts[4].setDest(Operand::imm(1)); // immediate destination
    expectOnly(verifyMachine(mp4), "mach.stream.dest");
}

TEST(MachVerifier, OperandShape)
{
    MachineProgram mp = tinyMachine();
    mp.insts[0].setSrc0(Operand::regOp(1)); // load takes no sources
    EXPECT_GE(countRule(verifyMachine(mp), "mach.operand.shape"), 1u);

    MachineProgram mp2 = tinyMachine();
    mp2.insts[2].setSrc1(Operand::none()); // MMUL missing its second source
    expectOnly(verifyMachine(mp2), "mach.operand.shape");

    // src2 is the MMAC accumulator and nothing else.
    MachineProgram mp3 = tinyMachine();
    mp3.insts[2].setSrc2(Operand::regOp(0)); // src2 on a MMUL
    expectOnly(verifyMachine(mp3), "mach.operand.shape");

    MachineProgram mp4 = tinyMachine();
    mp4.insts[2].op = Opcode::MMAC;
    mp4.insts[2].setSrc2(Operand::imm(3)); // immediate accumulator
    expectOnly(verifyMachine(mp4), "mach.operand.shape");
}

TEST(MachVerifier, MmacAccumulatorReadsAreChecked)
{
    MachineProgram mp = tinyMachine();
    mp.insts[2].op = Opcode::MMAC;
    mp.insts[2].setSrc2(Operand::regOp(6)); // r6 never written
    expectOnly(verifyMachine(mp), "mach.reg.uninit");

    // A written accumulator register is fine.
    MachineProgram ok = tinyMachine();
    ok.insts[2].op = Opcode::MMAC;
    ok.insts[2].setSrc2(Operand::regOp(1));
    EXPECT_TRUE(verifyMachine(ok).ok());
}

TEST(MachVerifier, ScratchPool)
{
    MachineProgram mp = tinyMachine();
    mp.scratchRegs = 5; // above the regalloc's historic clamp of 4
    expectOnly(verifyMachine(mp), "mach.scratch.pool");

    mp.scratchRegs = 0; // hand-built sentinel: rule skipped
    EXPECT_TRUE(verifyMachine(mp).ok());
}

TEST(MachVerifier, SramBudget)
{
    MachineProgram mp = tinyMachine();
    mp.numRegs = 64;
    MachVerifyBudget budget;
    budget.sramBytes = 16 * mp.residueBytes; // fits only 16 registers
    expectOnly(verifyMachine(mp, budget), "mach.sram.budget");
    // Without a budget the rule is skipped.
    EXPECT_TRUE(verifyMachine(mp).ok());
}

TEST(MachVerifier, MemAlign)
{
    // The regalloc lays objects and spill slots out in whole-residue
    // units; a mid-residue HBM address is a layout bug.
    MachineProgram mp = tinyMachine();
    mp.insts[0].setHbmAddr(mp.residueBytes + 17);
    expectOnly(verifyMachine(mp), "mach.mem.align");

    MachineProgram ok = tinyMachine();
    ok.insts[0].setHbmAddr(4 * ok.residueBytes); // aligned: clean
    EXPECT_TRUE(verifyMachine(ok).ok());
}

TEST(MachVerifier, NegativeRegisterIdsKeepTheirRule)
{
    for (int r : {-1, INT_MIN}) {
        MachineProgram mp = tinyMachine();
        mp.insts[2].setSrc0(Operand::regOp(r));
        EXPECT_EQ(mp.insts[2].src0().reg, r);
        expectOnly(verifyMachine(mp), "mach.reg.bounds");
    }
}

TEST(MachVerifier, HbmAddressesPast32Bits)
{
    // The spill area of bootstrapping at the baseline preset and 13 MB
    // of SRAM reaches 42 GiB.
    const u64 far = u64(42) << 30;
    MachineProgram ok = tinyMachine();
    ok.insts[0].setHbmAddr(far);
    ok.insts[3].setHbmAddr(far + ok.residueBytes);
    EXPECT_EQ(ok.insts[0].hbmAddr(), far);
    EXPECT_TRUE(verifyMachine(ok).ok());

    MachineProgram mp = tinyMachine();
    mp.insts[0].setHbmAddr(far + mp.residueBytes / 2);
    expectOnly(verifyMachine(mp), "mach.mem.align");
}

TEST(MachVerifier, LargestFifoTokenIsTracked)
{
    // Verified only: the dependence resolver's token table is dense, so
    // this program is not simulated.
    MachineProgram mp = tinyMachine();
    mp.insts[2].setDest(Operand::stream(UINT32_MAX));
    mp.insts[3].setSrc0(Operand::stream(UINT32_MAX));
    EXPECT_TRUE(verifyMachine(mp).ok());

    mp.insts[3].setSrc0(Operand::stream(UINT32_MAX - 1));
    expectOnly(verifyMachine(mp), "mach.stream.producer");
}

TEST(MachVerifier, MemOrder)
{
    // A store issued after an IR-later access of its address — the
    // alias-edge inversion (WAR here) no scheduler order may produce.
    MachineProgram mp = tinyMachine();
    mp.insts[0].irId = 9; // load of v9 at address 0 issues first...
    mp.insts[3].irId = 4; // ...then the store of IR-earlier v4
    expectOnly(verifyMachine(mp), "mach.mem.order");

    // A load issued after the store of an IR-later value (RAW
    // inversion).
    MachineProgram mp2 = tinyMachine();
    mp2.insts[3].irId = 9; // store of v9 at address 0
    MachInst ld;
    ld.op = Opcode::LOAD_RES;
    ld.setDest(Operand::regOp(4));
    ld.irId = 4; // IR-earlier load issued after it
    mp2.insts.push_back(ld);
    expectOnly(verifyMachine(mp2), "mach.mem.order");

    // Equal ids are one value's own spill store/reload traffic, and
    // IR-ordered accesses are what the alias edges require: both clean.
    MachineProgram ok = tinyMachine();
    ok.insts[0].irId = 3;
    ok.insts[1].irId = 3;
    ok.insts[3].irId = 7;
    EXPECT_TRUE(verifyMachine(ok).ok());
}

// --- The PR 4 regression class --------------------------------------------

/** Live-but-unused load: its value needs a home even with DCE off. */
IrProgram
unusedLoadProgram()
{
    IrProgram prog;
    prog.name = "unused-load";
    prog.degree = 1 << 12;
    IrBuilder b(prog);
    int in = b.object("in", 2, false);
    int out = b.object("out", 1, false);
    PolyVal a = b.load(in, 0, 1);
    b.load(in, 1, 1); // never consumed; only DCE would remove it
    b.store(out, 0, a);
    return prog;
}

TEST(MachVerifier, UnusedLoadCompilesToABoundedRegister)
{
    // The historic bug: with every optimization off, codegen emitted
    // the unconsumed load with destination register -1. The backend now
    // lands it in scratch, and the verifier pins the invariant.
    CompilerOptions opts;
    opts.pipeline = "";
    opts.verifyLevel = 0; // verify explicitly below
    IrProgram prog = unusedLoadProgram();
    Compiler compiler(opts);
    MachineProgram mp = compiler.compile(prog);
    const VerifyReport rep = verifyMachine(mp);
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(MachVerifier, InjectedBadRegisterIsCaughtWithTheRightRule)
{
    CompilerOptions opts;
    opts.pipeline = "";
    opts.verifyLevel = 0;
    IrProgram prog = unusedLoadProgram();
    Compiler compiler(opts);
    MachineProgram mp = compiler.compile(prog);
    ASSERT_FALSE(mp.insts.empty());
    // Re-inject the bug shape into the compiled program.
    mp.insts[0].setDest(Operand::regOp(-1));
    EXPECT_GE(countRule(verifyMachine(mp), "mach.reg.bounds"), 1u);
}

TEST(MachVerifier, SpillPressureNeverStealsAStreamedStoreToken)
{
    // Second bug the verifier layer caught (after the Mac-fusion token
    // duplication): a value whose only use is a streamed store entered
    // linear scan anyway, and under register pressure its longest-lived
    // interval was the preferred spill victim — the inserted spill
    // store then consumed the producer's one-shot FIFO token and left
    // the real streamed store with an unproduced token. Build that
    // exact shape: a streamed-to-store value live across enough
    // multi-use values to overflow the minimum 8-register file, with
    // more than fifoDepth instructions between producer and store so
    // FU-to-FU forwarding cannot paper over it.
    IrProgram prog;
    prog.degree = 1 << 12;
    IrBuilder b(prog);
    int in = b.object("in", 64, false);
    int out = b.object("out", 64, false);
    PolyVal first = b.load(in, 0, 1);
    PolyVal second = b.load(in, 1, 1);
    PolyVal streamed = b.mul(first, second); // only use: final store
    std::vector<PolyVal> held;
    for (int k = 2; k < 62; ++k)
        held.push_back(b.load(in, k, 1));
    for (int k = 0; k + 1 < 60; ++k) // middle loads used twice: need regs
        b.store(out, k + 2, b.add(held[k], held[k + 1]));
    b.store(out, 0, streamed);

    CompilerOptions opts = Platform::fullOptions(1); // minimum: 8 regs
    opts.scheduler = Scheduler::ProgramOrder; // pins the live ranges
    opts.verifyLevel = 0;  // verify explicitly below
    Compiler compiler(opts);
    MachineProgram mp = compiler.compile(prog);
    EXPECT_GT(mp.spillLoads + mp.spillStores, 0u); // pressure was real
    const VerifyReport rep = verifyMachine(mp);
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(MachVerifierDeathTest, DepGraphNamesTheMalformedInstruction)
{
    // The consumer-side guard: DepGraph::fromMachine on a corrupted
    // program dies with a diagnostic naming the instruction and the
    // violated rule, not a bare assert (let alone a segfault).
    for (int r : {-1, INT_MIN}) {
        MachineProgram mp = tinyMachine();
        mp.insts[2].setDest(Operand::regOp(r));
        EXPECT_DEATH(DepGraph::fromMachine(mp),
                     "destination register id is negative");
        EXPECT_DEATH(DepGraph::fromMachine(mp), "mach.reg.bounds");
    }
}

TEST(MachVerifierDeathTest, SimulatorNamesTheMalformedInstruction)
{
    // The simulator resolves dependences as instructions enter its
    // window and reaches the same guard.
    MachineProgram mp = tinyMachine();
    mp.insts[2].setDest(Operand::regOp(-1));
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    EXPECT_DEATH(Simulator(hw).run(mp),
                 "destination register id is negative");
    EXPECT_DEATH(Simulator(hw).run(mp), "mach.reg.bounds");
}

// --- Compiler checkpoints -------------------------------------------------

TEST(Checkpoints, VerifiedCompileIsCleanAndRecordsStats)
{
    IrProgram prog = tinyProgram();
    CompilerOptions opts;
    opts.verifyLevel = 1;
    Compiler compiler(opts);
    MachineProgram mp = compiler.compile(prog);
    EXPECT_FALSE(mp.insts.empty());
    EXPECT_GT(compiler.stats().get("verify.checks"), 0.0);
    EXPECT_TRUE(compiler.stats().has("verify.ms"));
}

TEST(Checkpoints, VerificationDoesNotChangeTheEmittedCode)
{
    IrProgram verified_prog = tinyProgram();
    IrProgram plain_prog = tinyProgram();
    CompilerOptions verified_opts;
    verified_opts.verifyLevel = 1;
    CompilerOptions plain_opts;
    plain_opts.verifyLevel = 0;
    MachineProgram verified =
        Compiler(verified_opts).compile(verified_prog);
    MachineProgram plain = Compiler(plain_opts).compile(plain_prog);
    EXPECT_EQ(fingerprint(verified), fingerprint(plain));
}

TEST(Checkpoints, VerifyLevelSplitsCompileCacheEntries)
{
    // A verified and an unverified compile of the same preset emit the
    // same machine code but record different middle-end stats, so they
    // keep separate cache entries: a hit replays the stats of the run
    // that built its entry.
    CompileCache cache;
    CompilerOptions opts;
    opts.verifyLevel = 1;
    IrProgram first = tinyProgram();
    Compiler verified(opts);
    const MachineProgram verified_code = verified.compile(first, &cache);
    EXPECT_EQ(verified.stats().get("cache.hit"), 0.0);
    EXPECT_GT(verified.stats().get("verify.checks"), 0.0);

    opts.verifyLevel = 0;
    IrProgram second = tinyProgram();
    Compiler unverified(opts);
    const MachineProgram plain_code = unverified.compile(second, &cache);
    EXPECT_EQ(unverified.stats().get("cache.hit"), 0.0);
    EXPECT_EQ(unverified.stats().get("verify.checks"), 0.0);
    EXPECT_EQ(fingerprint(verified_code), fingerprint(plain_code));
    EXPECT_EQ(cache.statsSnapshot().get("cache.entries"), 2.0);

    // Any level above 0 is the same key.
    opts.verifyLevel = 2;
    IrProgram third = tinyProgram();
    Compiler again(opts);
    again.compile(third, &cache);
    EXPECT_EQ(again.stats().get("cache.hit"), 1.0);
}

TEST(Checkpoints, PassManagerVerifiesAtPassBoundaries)
{
    // A program with PRE-removable redundancy, so at least one pass
    // reports a change and its post-pass checkpoint actually runs.
    IrProgram prog;
    prog.degree = 1 << 12;
    IrBuilder b(prog);
    int in = b.object("in", 2, false);
    int out = b.object("out", 2, false);
    PolyVal x = b.load(in, 0, 1);
    PolyVal y = b.load(in, 1, 1);
    b.store(out, 0, b.mul(x, y));
    b.store(out, 1, b.mul(x, y)); // redundant: PRE removes one
    StatSet stats;
    PassManager pm = PassManager::fromSpec("copyprop,constprop,pre");
    pm.setVerifyLevel(1);
    pm.run(prog, stats);
    EXPECT_TRUE(pm.converged());
    EXPECT_GT(stats.get("verify.checks"), 0.0);
    EXPECT_GT(stats.get("pass.pre.removed"), 0.0);
}

TEST(CheckpointsDeathTest, MalformedInputNamedAtTheMiddleEndBoundary)
{
    // A malformed frontend program is reported against the middle-end
    // input checkpoint with its rule id, not against whichever pass
    // trips over it first.
    IrProgram prog = tinyProgram();
    prog.insts[2].modulus = kMaxLimbIndex;
    CompilerOptions opts;
    opts.verifyLevel = 1;
    Compiler compiler(opts);
    EXPECT_DEATH(Compiler(opts).compile(prog), "middle-end input");
    EXPECT_DEATH(compiler.compile(prog), "ir.modulus.range");
}

TEST(CheckpointsDeathTest, EnvironmentLevelIsADecimalCount)
{
    // `defaultVerifyLevel` reads `EFFACT_VERIFY` once per process, so each
    // value is read in a freshly started child: a count, any count above
    // 1 verifies as 1 does, and anything else warns and stays off.
    const std::string style = ::testing::GTEST_FLAG(death_test_style);
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::pair<const char *, int> cases[] = {
        {"0", 0}, {"1", 1}, {"7", 1}, {"99999999999", 1},
        {"yes", 0}, {"-1", 0}, {"1x", 0},
    };
    for (const auto &[text, level] : cases) {
        EXPECT_EXIT(
            {
                ::setenv("EFFACT_VERIFY", text, 1);
                std::exit(defaultVerifyLevel());
            },
            ::testing::ExitedWithCode(level), "")
            << text;
    }
    ::testing::GTEST_FLAG(death_test_style) = style;
}

// --- Randomized corruption fuzz -------------------------------------------

/** A mid-sized compiled-shape IR base for corruption. */
IrProgram
fuzzBase()
{
    FheParams fhe;
    fhe.logN = 12;
    fhe.levels = 4;
    fhe.dnum = 2;
    Workload w = buildDbLookup(fhe, 8);
    return w.program;
}

TEST(CorruptionFuzz, EveryInjectedIrDefectIsCaught)
{
    const IrProgram base = fuzzBase();
    ASSERT_TRUE(verifyIr(base).ok());
    const int n = static_cast<int>(base.insts.size());
    std::mt19937 rng(0xEFFAC7u);
    auto pick = [&](auto &&pred) {
        for (;;) {
            int i = static_cast<int>(rng() % n);
            if (!base.insts[i].dead && pred(base.insts[i]))
                return i;
        }
    };

    size_t caught = 0;
    const size_t kRounds = 200;
    for (size_t round = 0; round < kRounds; ++round) {
        IrProgram prog = base;
        switch (round % 8) {
          case 0: { // use-before-def
            int i = pick([](const IrInst &x) { return x.a >= 0; });
            prog.insts[i].a = i;
            break;
          }
          case 1: { // operand id out of range
            int i = pick([](const IrInst &x) { return x.a >= 0; });
            prog.insts[i].a = n + 1 + static_cast<int>(rng() % 100);
            break;
          }
          case 2: { // corrupted limb index
            int i = pick([](const IrInst &) { return true; });
            prog.insts[i].modulus = kMaxLimbIndex + rng() % 1000;
            break;
          }
          case 3: { // live user of a dead value
            int i = pick([](const IrInst &x) { return x.a >= 0; });
            prog.insts[prog.insts[i].a].dead = true;
            break;
          }
          case 4: { // memory reference outside the object table
            int i = pick([](const IrInst &x) {
                return x.op == IrOp::Load || x.op == IrOp::Store;
            });
            prog.insts[i].mem.object =
                static_cast<int>(prog.objects.size()) + 1;
            break;
          }
          case 5: { // stray MemRef on a compute instruction
            int i = pick([](const IrInst &x) {
                return x.op != IrOp::Load && x.op != IrOp::Store;
            });
            prog.insts[i].mem.object = 0;
            break;
          }
          case 6: { // accumulator on a non-Mac opcode
            int i = pick([](const IrInst &x) {
                return x.op != IrOp::Mac && x.a >= 0;
            });
            prog.insts[i].c = 0;
            break;
          }
          default: { // Galois element outside [1, 2N)
            int i = pick([](const IrInst &x) {
                return x.op == IrOp::Auto && x.useImm;
            });
            prog.insts[i].imm = 2 * u64(prog.degree) + rng() % 100;
            break;
          }
        }
        caught += !verifyIr(prog).ok();
    }
    EXPECT_EQ(caught, kRounds); // 100% catch rate
}

TEST(CorruptionFuzz, EveryInjectedMachineDefectIsCaught)
{
    IrProgram prog = fuzzBase();
    CompilerOptions opts = Platform::fullOptions(size_t(1) << 20);
    opts.verifyLevel = 0;
    const MachineProgram base = Compiler(opts).compile(prog);
    ASSERT_TRUE(verifyMachine(base).ok());
    const int n = static_cast<int>(base.insts.size());
    const int regs = static_cast<int>(base.numRegs);
    std::mt19937 rng(0xBADC0DEu);
    auto pick = [&](auto &&pred) {
        for (;;) {
            int i = static_cast<int>(rng() % n);
            if (pred(base.insts[i]))
                return i;
        }
    };

    size_t caught = 0;
    const size_t kRounds = 200;
    for (size_t round = 0; round < kRounds; ++round) {
        MachineProgram mp = base;
        switch (round % 8) {
          case 0: { // the PR 4 class: negative register id
            int i = pick([](const MachInst &x) {
                return x.dest().kind == OperandKind::Reg;
            });
            mp.insts[i].setDest(Operand::regOp(-1));
            break;
          }
          case 1: { // register id past the file
            int i = pick([](const MachInst &x) {
                return x.src0().kind == OperandKind::Reg;
            });
            mp.insts[i].setSrc0(
                Operand::regOp(regs + static_cast<int>(rng() % 8)));
            break;
          }
          case 2: { // compute instruction loses its destination
            int i = pick([](const MachInst &x) {
                return x.op != Opcode::STORE_RES;
            });
            mp.insts[i].setDest(Operand::none());
            break;
          }
          case 3: { // FIFO consumer with no producer (the largest token)
            int i = pick([](const MachInst &x) { return !x.isMemoryOp(); });
            mp.insts[i].setSrc0(Operand::stream(UINT32_MAX));
            break;
          }
          case 4: { // src2 outside MMAC
            int i = pick([](const MachInst &x) {
                return x.op != Opcode::MMAC;
            });
            mp.insts[i].setSrc2(Operand::regOp(0));
            break;
          }
          case 5: { // scratch pool outside the clamp
            mp.scratchRegs = 5 + rng() % 10;
            break;
          }
          case 6: { // mid-residue HBM address on a memory access
            int i = pick([](const MachInst &x) { return x.isMemoryOp(); });
            mp.insts[i].setHbmAddr(mp.insts[i].hbmAddr() + 1 +
                                   rng() % (base.residueBytes - 1));
            break;
          }
          default: { // reload issued before the IR-ordered spill store
            int i = pick([](const MachInst &x) {
                return x.dest().kind == OperandKind::Reg;
            });
            const u64 addr = u64(n + 100) * base.residueBytes;
            MachInst st;
            st.op = Opcode::STORE_RES;
            st.setSrc0(base.insts[i].dest());
            st.setHbmAddr(addr);
            st.irId = 5;
            mp.insts.push_back(st);
            MachInst ld;
            ld.op = Opcode::LOAD_RES;
            ld.setDest(base.insts[i].dest());
            ld.setHbmAddr(addr);
            ld.irId = 4; // IR-before the store it follows
            mp.insts.push_back(ld);
            break;
          }
        }
        caught += !verifyMachine(mp).ok();
    }
    EXPECT_EQ(caught, kRounds); // 100% catch rate
}

// --- Verified seed workloads across presets and thread counts -------------

/** The four Fig. 11 presets plus the rotalg/priority/latency optimized
 *  preset — every verified sweep covers all five. */
std::vector<CompilerOptions>
fig11Presets(size_t sram)
{
    return {Platform::baselineOptions(sram),
            Platform::madEnhancedOptions(sram),
            Platform::streamingOptions(sram), Platform::fullOptions(sram),
            Platform::optimizedOptions(sram)};
}

/** Small-workload jobs for every Fig. 11 preset, fully verified. */
std::vector<SweepJob>
verifiedGrid()
{
    FheParams fhe;
    fhe.logN = 13;
    fhe.levels = 8;
    fhe.dnum = 2;
    const HardwareConfig hw = HardwareConfig::asicEffact27();
    std::vector<SweepJob> jobs;
    for (const CompilerOptions &opts : fig11Presets(hw.sramBytes)) {
        SweepJob job;
        job.name = "preset" + std::to_string(jobs.size());
        job.build = [fhe] { return buildDbLookup(fhe, 32); };
        job.hw = hw;
        job.copts = opts;
        job.copts.verifyLevel = 1;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(VerifiedWorkloads, CleanAtEveryBoundaryAcrossPresetsAndThreads)
{
    // Checkpoint enforcement panics on the first malformed program, so
    // a run to completion IS the assertion that every boundary of every
    // preset is verifier-clean — at each sweep thread count.
    const std::vector<SweepJob> jobs = verifiedGrid();
    uint64_t serial_fp = 0;
    for (size_t threads : {size_t(1), size_t(2), size_t(8)}) {
        const std::vector<PlatformResult> results = runSweep(jobs, threads);
        ASSERT_EQ(results.size(), 5u);
        uint64_t fp = 0;
        double checks = 0;
        for (size_t i = 0; i < results.size(); ++i) {
            EXPECT_GT(results[i].sim.cycles, 0.0) << jobs[i].name;
            fp ^= results[i].machineFingerprint;
            checks += results[i].compilerStats.get("verify.checks");
        }
        EXPECT_GT(checks, 0.0);
        if (threads == 1)
            serial_fp = fp;
        else // verified parallel sweeps stay deterministic
            EXPECT_EQ(fp, serial_fp);
    }
}

// --- Paper-scale verified matrix (slow registration only) -----------------

TEST(SlowVerify, StockWorkloadsAllPresetsVerifyClean)
{
    FheParams fhe; // paper defaults
    FheParams boot = fhe;
    boot.logN = 15;
    boot.levels = 16;
    boot.dnum = 4;
    const HardwareConfig hw = HardwareConfig::asicEffact27();

    struct W
    {
        const char *name;
        std::function<Workload()> build;
    };
    const std::vector<W> workloads = {
        {"boot",
         [boot] {
             return buildBootstrapping(boot, {size_t(1) << 14, 3, 2});
         }},
        {"helr", [fhe] { return buildHelr(fhe); }},
        {"dblookup", [fhe] { return buildDbLookup(fhe); }},
        {"tfhe", [] { return buildTfheBootstrap(); }},
    };

    std::vector<SweepJob> jobs;
    int preset_idx = 0;
    for (const CompilerOptions &opts : fig11Presets(hw.sramBytes)) {
        for (const W &w : workloads) {
            SweepJob job;
            job.name = std::string(w.name) + "/preset" +
                       std::to_string(preset_idx);
            job.build = w.build;
            job.hw = hw;
            job.copts = opts;
            job.copts.verifyLevel = 1;
            jobs.push_back(std::move(job));
        }
        ++preset_idx;
    }
    CompileCache cache;
    for (size_t threads : {size_t(1), size_t(8)}) {
        const std::vector<PlatformResult> results =
            runSweep(jobs, threads, &cache);
        for (size_t i = 0; i < results.size(); ++i)
            EXPECT_GT(results[i].sim.cycles, 0.0) << jobs[i].name;
    }
}

} // namespace
} // namespace effact
