/**
 * @file
 * Runtime-dispatched hot-loop kernels of the math substrate.
 *
 * Three kernel families dominate workload construction and every
 * crypto test: the Cooley-Tukey / Gentleman-Sande NTT butterflies,
 * Barrett modular multiplication, and the BConv / RnsPoly elementwise
 * MAC chains. Each family has a scalar oracle and one vector
 * implementation, instantiated per vector `SimdTier`, behind a
 * function-pointer table per tier:
 *
 *  - kernels_scalar.cc — the original scalar loops, kept verbatim.
 *    This tier is the *oracle*: every other tier must produce the
 *    exact same `u64` outputs on the same inputs (pinned by
 *    tests/test_simd_kernels.cc), which is what keeps fingerprints,
 *    `CompileCache` keys and `bench/baseline.json` byte-identical no
 *    matter which tier runs.
 *
 *  - kernels_vector.inc — the vector tiers' one body: every kernel
 *    algorithm (the elementwise loops with their scalar tails, addMod,
 *    the Shoup multiply, the Barrett replay, both NTT drivers), written
 *    against a lane-traits type. Twiddles and MAC constants use Shoup
 *    pre-scaling (floor(w * 2^64 / q), precomputed per plan or call)
 *    — exact because a canonical residue is unique: any correct
 *    reduction yields the identical representative in [0, q).
 *
 *  - kernels_avx2.cc / kernels_avx512.cc — each defines its traits
 *    (4 x u64 lanes on AVX2, 8 on AVX-512F + DQ) and instantiates the
 *    body under its own `-m` flags. A tier supplies only what depends
 *    on the instruction set: load, store, splat and the lane integer
 *    ops; the 64x64->128 and the low product; the conditional
 *    subtract, subMod and negMod; and, per NTT butterfly span below
 *    its lane count, how two loaded vectors split into u/v lanes, how
 *    block twiddles expand and how results interleave back.
 *
 * Exactness contracts (same as the scalar classes they mirror):
 * elementwise operands are reduced (< q); `mulConstV`/`macConstV`
 * constants are < q. Outputs are always canonical.
 *
 * Callers that already hold per-limb reducers pass them in; the
 * kernels hoist whatever per-call constants they need (e.g. the Shoup
 * image of a MAC constant) once per call, never per element.
 */
#ifndef EFFACT_MATH_KERNELS_H
#define EFFACT_MATH_KERNELS_H

#include <cstddef>

#include "common/simd.h"
#include "math/mod_arith.h"

namespace effact {
namespace kernels {

/**
 * Twiddle tables of one NTT plan, in the layout the butterflies want:
 * bit-reversed root order (contiguous per stage, so lane-parallel
 * stages load twiddles with plain vector loads) plus the Shoup
 * pre-scaled image of every root for the vector tiers.
 */
struct NttTables
{
    u64 q = 0;
    const u64 *roots = nullptr;         ///< psi^k, k bit-reversed (CT)
    const u64 *rootsShoup = nullptr;    ///< floor(roots * 2^64 / q)
    const u64 *invRoots = nullptr;      ///< psi^-k, bit-reversed (GS)
    const u64 *invRootsShoup = nullptr; ///< floor(invRoots * 2^64 / q)
    const Barrett *barrett = nullptr;   ///< scalar-oracle reducer for q
};

/** One function pointer per hot kernel; one table per tier. */
struct KernelTable
{
    /** dst[i] = addMod(a[i], b[i], q) */
    void (*addModV)(u64 *dst, const u64 *a, const u64 *b, size_t n, u64 q);
    /** dst[i] = subMod(a[i], b[i], q) */
    void (*subModV)(u64 *dst, const u64 *a, const u64 *b, size_t n, u64 q);
    /** dst[i] = negMod(a[i], q) */
    void (*negModV)(u64 *dst, const u64 *a, size_t n, u64 q);
    /** dst[i] = br.mul(a[i], b[i]) */
    void (*mulModV)(u64 *dst, const u64 *a, const u64 *b, size_t n,
                    const Barrett &br);
    /** dst[i] = br.mul(a[i], c), constant c < q hoisted per call */
    void (*mulConstV)(u64 *dst, const u64 *a, size_t n, u64 c,
                      const Barrett &br);
    /** dst[i] = addMod(dst[i], br.mul(a[i], c), q) — the BConv MAC */
    void (*macConstV)(u64 *dst, const u64 *a, size_t n, u64 c,
                      const Barrett &br);
    /** In-place forward NTT (natural -> bit-reversed), full transform. */
    void (*nttForward)(u64 *a, size_t n, const NttTables &t);
    /** In-place inverse NTT core (no 1/N scale), full transform. */
    void (*nttInverse)(u64 *a, size_t n, const NttTables &t);
};

/** The scalar oracle table — always available. */
const KernelTable &scalarKernels();

/**
 * Table for `tier`, falling back to the highest available lower tier
 * (e.g. Avx2 on a non-x86 build resolves to scalar). Total: every tier
 * value maps to a usable table.
 */
const KernelTable &forTier(SimdTier tier);

/** Table for the process-wide active tier (common/simd.h). */
inline const KernelTable &
active()
{
    return forTier(activeSimdTier());
}

/**
 * Shoup pre-scaling: floor(w * 2^64 / q) for w < q. With q < 2^62 and
 * any 64-bit x, `x * w mod q` is then two multiplies and one
 * conditional subtract (used by the vector tiers; precomputed per
 * twiddle table or per kernel call, never per element).
 */
inline u64
shoupPrecompute(u64 w, u64 q)
{
    return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

} // namespace kernels
} // namespace effact

#endif // EFFACT_MATH_KERNELS_H
