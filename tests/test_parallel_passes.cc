/**
 * @file
 * Within-job parallelism equivalence: every region-sharded pass and the
 * sharded back-end emission must produce *bit-identical* results to the
 * legacy serial scans at any worker count — same final IR (including
 * dead flags and operand rewrites), same rewrite-count statistics, same
 * machine code. Chunk boundaries depend only on the program size, never
 * on the worker count, so 1, 2 and 8 threads must all match the serial
 * oracle exactly; this suite pins that contract per pass and end to end
 * through `Compiler::compile`. PRE has no sharded variant (it runs
 * serial at every width), so it appears only in the end-to-end checks.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/compile_cache.h"
#include "compiler/pass_manager.h"
#include "ir/builder.h"
#include "ir/workloads.h"
#include "runtime/thread_pool.h"

namespace effact {
namespace {

/** Stat comparison that ignores wall-clock keys (`*.ms`): timings are
 *  the one legitimately nondeterministic stat family. */
std::string
countsOnly(const StatSet &stats)
{
    std::string out;
    for (const auto &[key, value] : stats.all()) {
        if (key.size() > 3 && key.compare(key.size() - 3, 3, ".ms") == 0)
            continue;
        out += key;
        out += '=';
        out += std::to_string(value);
        out += '\n';
    }
    return out;
}

/** Reduced-size stock workloads (paper benchmarks at small params). */
std::vector<std::pair<std::string, IrProgram>>
stockPrograms()
{
    FheParams fhe;
    fhe.logN = 14;
    fhe.levels = 16;
    fhe.dnum = 4;
    std::vector<std::pair<std::string, IrProgram>> all;
    all.emplace_back(
        "bootstrapping",
        buildBootstrapping(fhe, {256, 2, 2, 63, 8}).program);
    all.emplace_back("dblookup", buildDbLookup(fhe, 64).program);
    return all;
}

/** Long copy chain (pointer jumping needs multiple rounds), an
 *  immediate-multiply chain (sequential sub-phase), identity folds, an
 *  iNTT scale chain (Eq. 5 fold + MAC interplay), and redundant
 *  subexpressions (PRE winner selection) — every pass's tricky case in
 *  one directed program. */
IrProgram
directedProgram()
{
    IrProgram prog;
    prog.name = "directed";
    prog.degree = 1 << 12;
    IrBuilder b(prog);
    int in = b.object("in", 4, true);
    int out = b.object("out", 8, false);
    PolyVal x = b.load(in, 0, 1);
    PolyVal y = b.load(in, 1, 1);
    // Copy chain deep enough that one pointer-jump round cannot close it.
    PolyVal c = x;
    for (int k = 0; k < 9; ++k) {
        PolyVal next;
        next.limbs.push_back(b.emit1(IrOp::Copy, c.limbs[0], -1, 0));
        c = next;
    }
    // Identity folds feeding an immediate chain.
    PolyVal m = b.mulImm(c, 1);
    m = b.addImm(m, 0);
    m = b.mulImm(m, 3);
    m = b.mulImm(m, 5);
    m = b.mulImm(m, 7);
    b.store(out, 0, m);
    // Redundant subexpressions, commutative on purpose.
    PolyVal p1 = b.mul(x, y);
    PolyVal p2 = b.mul(y, x);
    b.store(out, 1, b.add(p1, p2));
    // Redundant read-only loads (reload elimination).
    PolyVal x2 = b.load(in, 0, 1);
    b.store(out, 2, b.add(x2, y));
    // iNTT scale chain: Eq. 5 folds collapse one link per sweep.
    PolyVal w = b.intt(y);
    w = b.mulImm(w, 11);
    w = b.mulImm(w, 13);
    b.store(out, 3, w);
    // Mul+Add pairs for MAC fusion, both operand orders.
    PolyVal q1 = b.mul(x, y);
    b.store(out, 4, b.add(q1, x));
    PolyVal q2 = b.mul(y, y);
    b.store(out, 5, b.add(x, q2));
    return prog;
}

std::vector<std::pair<std::string, IrProgram>>
allPrograms()
{
    auto all = stockPrograms();
    all.emplace_back("directed", directedProgram());
    return all;
}

using PassFn = size_t (*)(IrProgram &, StatSet &, const ParallelExec &);

const std::vector<std::pair<std::string, PassFn>> kPasses = {
    {"copyprop", &runCopyProp},
    {"constprop", &runConstProp},
    {"peephole", &runPeephole},
};

TEST(ParallelPasses, EveryPassMatchesSerialAtAnyThreadCount)
{
    for (const auto &[prog_name, original] : allPrograms()) {
        // Serial oracle, once per pass.
        for (const auto &[pass_name, fn] : kPasses) {
            IrProgram serial = original;
            StatSet serial_stats;
            const size_t serial_rewrites =
                fn(serial, serial_stats, ParallelExec());
            const uint64_t serial_fp = fingerprint(serial);

            for (size_t threads : {1, 2, 8}) {
                ThreadPool pool(threads);
                ParallelExec exec(&pool);
                ASSERT_TRUE(exec.parallel());
                IrProgram parallel = original;
                StatSet parallel_stats;
                const size_t parallel_rewrites =
                    fn(parallel, parallel_stats, exec);
                EXPECT_EQ(parallel_rewrites, serial_rewrites)
                    << prog_name << "/" << pass_name << " @" << threads;
                EXPECT_EQ(fingerprint(parallel), serial_fp)
                    << prog_name << "/" << pass_name << " @" << threads;
                EXPECT_EQ(countsOnly(parallel_stats),
                          countsOnly(serial_stats))
                    << prog_name << "/" << pass_name << " @" << threads;
            }
        }
    }
}

TEST(ParallelPasses, RepeatedSweepsStayIdentical)
{
    // Fixed-point iteration feeds each pass its own previous output;
    // divergence can hide in later sweeps (partially-folded chains,
    // dead-operand patterns the first sweep never shows). Sweep the
    // whole pipeline to quiescence pass-by-pass and compare each step.
    for (const auto &[prog_name, original] : allPrograms()) {
        IrProgram serial = original;
        ThreadPool pool(8);
        ParallelExec exec(&pool);
        IrProgram parallel = original;
        for (int sweep = 0; sweep < 4; ++sweep) {
            for (const auto &[pass_name, fn] : kPasses) {
                StatSet s1, s2;
                fn(serial, s1, ParallelExec());
                fn(parallel, s2, exec);
                ASSERT_EQ(fingerprint(parallel), fingerprint(serial))
                    << prog_name << "/" << pass_name << " sweep "
                    << sweep;
                ASSERT_EQ(countsOnly(s2), countsOnly(s1))
                    << prog_name << "/" << pass_name << " sweep "
                    << sweep;
            }
        }
    }
}

TEST(ParallelPasses, FullCompileMatchesSerialAtAnyThreadCount)
{
    // End to end through the fixed-point pipeline, parallel analysis
    // builds and the sharded back-end emission. The tight SRAM budget
    // forces spills, so the scratch round-robin seeding and the reload
    // emission paths are exercised.
    for (const auto &[prog_name, original] : allPrograms()) {
        for (size_t sram_mb : {1, 27}) {
            CompilerOptions opts;
            opts.sramBytes = sram_mb << 20;

            IrProgram serial_prog = original;
            Compiler serial_compiler(opts);
            AnalysisManager serial_analyses;
            const MachineProgram serial_mp =
                serial_compiler.compile(serial_prog, serial_analyses);
            const uint64_t serial_fp = fingerprint(serial_mp);

            for (size_t threads : {1, 2, 8}) {
                ThreadPool pool(threads);
                IrProgram prog = original;
                Compiler compiler(opts);
                AnalysisManager analyses;
                analyses.setExec(ParallelExec(&pool));
                const MachineProgram mp = compiler.compile(prog, analyses);
                EXPECT_EQ(fingerprint(mp), serial_fp)
                    << prog_name << " sram=" << sram_mb << "MB @"
                    << threads;
                EXPECT_EQ(fingerprint(prog), fingerprint(serial_prog))
                    << prog_name << " sram=" << sram_mb << "MB @"
                    << threads;
                EXPECT_EQ(countsOnly(compiler.stats()),
                          countsOnly(serial_compiler.stats()))
                    << prog_name << " sram=" << sram_mb << "MB @"
                    << threads;
            }
        }
    }
}

TEST(ParallelPasses, CacheSnapshotsMatchSerial)
{
    // A region-sharded middle end must publish a CompileCache snapshot
    // byte-identical to the serial one: same optimized IR, same stat
    // counts — so hits cross over freely (a serial compile replaying a
    // parallel-built snapshot and vice versa is indistinguishable from
    // staying in one mode).
    auto dropHitMarker = [](const StatSet &stats) {
        std::string out;
        for (const auto &[key, value] : stats.all()) {
            if (key == "cache.hit" ||
                (key.size() > 3 &&
                 key.compare(key.size() - 3, 3, ".ms") == 0))
                continue;
            out += key + '=' + std::to_string(value) + '\n';
        }
        return out;
    };
    ThreadPool pool(8);
    for (const auto &[prog_name, original] : allPrograms()) {
        const CompilerOptions opts;

        // Serial-built and parallel-built snapshots, separate caches.
        CompileCache serial_cache, parallel_cache;
        IrProgram p_serial = original;
        Compiler c_serial(opts);
        AnalysisManager a_serial;
        const MachineProgram mp_serial =
            c_serial.compile(p_serial, a_serial, &serial_cache);

        IrProgram p_parallel = original;
        Compiler c_parallel(opts);
        AnalysisManager a_parallel;
        a_parallel.setExec(ParallelExec(&pool));
        const MachineProgram mp_parallel =
            c_parallel.compile(p_parallel, a_parallel, &parallel_cache);

        // The published optimized programs and the machine code match.
        EXPECT_EQ(fingerprint(p_parallel), fingerprint(p_serial))
            << prog_name;
        EXPECT_EQ(fingerprint(mp_parallel), fingerprint(mp_serial))
            << prog_name;
        EXPECT_EQ(dropHitMarker(c_parallel.stats()),
                  dropHitMarker(c_serial.stats()))
            << prog_name;

        // Cross hits: serial compile adopting the parallel-built
        // snapshot (and vice versa) reproduces the same results.
        IrProgram p_cross1 = original;
        Compiler c_cross1(opts);
        AnalysisManager a_cross1;
        const MachineProgram mp_cross1 =
            c_cross1.compile(p_cross1, a_cross1, &parallel_cache);
        EXPECT_EQ(c_cross1.stats().get("cache.hit"), 1.0) << prog_name;
        EXPECT_EQ(fingerprint(mp_cross1), fingerprint(mp_serial))
            << prog_name;
        EXPECT_EQ(dropHitMarker(c_cross1.stats()),
                  dropHitMarker(c_serial.stats()))
            << prog_name;

        IrProgram p_cross2 = original;
        Compiler c_cross2(opts);
        AnalysisManager a_cross2;
        a_cross2.setExec(ParallelExec(&pool));
        const MachineProgram mp_cross2 =
            c_cross2.compile(p_cross2, a_cross2, &serial_cache);
        EXPECT_EQ(c_cross2.stats().get("cache.hit"), 1.0) << prog_name;
        EXPECT_EQ(fingerprint(mp_cross2), fingerprint(mp_serial))
            << prog_name;
    }
}

TEST(ParallelPasses, ChunkBoundariesIgnoreWorkerCount)
{
    // splitChunks is the determinism keystone: boundaries are a pure
    // function of (n, grain).
    const auto chunks = splitChunks(10000, 4096);
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_EQ(chunks[0].begin, 0u);
    EXPECT_EQ(chunks[0].end, 4096u);
    EXPECT_EQ(chunks[1].begin, 4096u);
    EXPECT_EQ(chunks[1].end, 10000u); // last chunk absorbs the tail
    EXPECT_EQ(splitChunks(0, 4096).size(), 0u);
    EXPECT_EQ(splitChunks(1, 4096).size(), 1u);
    EXPECT_EQ(splitChunks(4096, 4096).size(), 1u);
    EXPECT_EQ(splitChunks(4097, 4096).size(), 1u);
    EXPECT_EQ(splitChunks(8192, 4096).size(), 2u);
}

TEST(ParallelPasses, NestedGroupsDoNotDeadlock)
{
    // Two-level nesting on a tiny pool: outer tasks each fan out inner
    // chunked loops. Group::wait must help run queued tasks instead of
    // sleeping, or a 1-thread pool deadlocks here.
    ThreadPool pool(1);
    ParallelExec outer(&pool);
    std::vector<size_t> sums(3, 0);
    outer.forChunks(3, 1, [&](size_t c, size_t begin, size_t end) {
        ASSERT_EQ(begin + 1, end);
        ParallelExec inner(&pool);
        std::vector<size_t> parts(4, 0);
        inner.forChunks(4096 * 4, 4096,
                        [&](size_t inner_c, size_t b, size_t e) {
                            size_t s = 0;
                            for (size_t i = b; i < e; ++i)
                                s += i % 7;
                            parts[inner_c] = s;
                        });
        size_t total = 0;
        for (size_t p : parts)
            total += p;
        sums[c] = total + begin;
    });
    EXPECT_EQ(sums[1], sums[0] + 1);
    EXPECT_EQ(sums[2], sums[0] + 2);
}

} // namespace
} // namespace effact
