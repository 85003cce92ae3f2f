/**
 * @file
 * AVX-512 kernel tier: 8 x u64 lanes for the NTT butterflies, the
 * Barrett modular multiplies and the BConv MAC chains.
 *
 * This translation unit is the only one compiled with -mavx512f
 * -mavx512dq (set per source file in src/CMakeLists.txt); it is
 * reached exclusively through the dispatch table, which only selects
 * it after a CPUID check for both features. On builds where the
 * compiler cannot target them the file degrades to a stub returning
 * nullptr and dispatch falls back to the AVX2 tier.
 *
 * The arithmetic is kernels_avx2.cc's, widened to eight lanes, so the
 * exactness argument there carries over: every kernel returns the
 * canonical representative in [0, q), the unique value the scalar
 * oracle computes. What AVX-512 changes:
 *
 *  - `_mm512_mullo_epi64` (DQ) gives the low half of a 64x64 product
 *    in one instruction; high halves still come from four widening
 *    32-bit multiplies (`_mm512_mul_epu32`).
 *  - Unsigned min exists, so each conditional subtract is
 *    `_mm512_min_epu64(r, r - q)`: r - q wraps above r exactly when
 *    r < q. No signed-compare headroom argument is needed.
 *  - Barrett's quotient estimate takes one high half instead of a full
 *    128-bit product and two shifts (see barrettMul8); the quotient,
 *    and so every intermediate, is the scalar code's.
 *  - NTT stages with t < 8 pack several butterfly blocks into one
 *    vector with `_mm512_permutex2var_epi64` against constant index
 *    vectors; transforms with n < 16 take the scalar oracle, so no
 *    vector load reads past the n-entry root tables.
 */
#include "math/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace effact {
namespace kernels {
namespace {

inline __m512i
loadu(const u64 *p)
{
    return _mm512_loadu_si512(p);
}

inline void
storeu(u64 *p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

inline __m512i
splat(u64 x)
{
    return _mm512_set1_epi64(static_cast<long long>(x));
}

/** Per-lane 64x64 -> 128 product from widening 32-bit multiplies. */
inline void
mul64wide(__m512i a, __m512i b, __m512i &hi, __m512i &lo)
{
    const __m512i mask32 = splat(0xFFFFFFFFull);
    const __m512i a_hi = _mm512_srli_epi64(a, 32);
    const __m512i b_hi = _mm512_srli_epi64(b, 32);
    const __m512i ll = _mm512_mul_epu32(a, b);
    const __m512i lh = _mm512_mul_epu32(a, b_hi);
    const __m512i hl = _mm512_mul_epu32(a_hi, b);
    const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
    // t = hl + ll.hi and u = lh + t.lo each stay below 2^64, and
    // a*b = (hh + t.hi + u.hi) * 2^64 + u.lo * 2^32 + ll.lo.
    const __m512i t = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32));
    const __m512i u = _mm512_add_epi64(lh, _mm512_and_si512(t, mask32));
    hi = _mm512_add_epi64(
        hh, _mm512_add_epi64(_mm512_srli_epi64(t, 32),
                             _mm512_srli_epi64(u, 32)));
    lo = _mm512_or_si512(_mm512_slli_epi64(u, 32),
                         _mm512_and_si512(ll, mask32));
}

/** Per-lane high 64 bits of a*b. */
inline __m512i
mulhi64(__m512i a, __m512i b)
{
    __m512i hi, lo;
    mul64wide(a, b, hi, lo);
    return hi;
}

/** r >= q ? r - q : r, for any r < 2^64. */
inline __m512i
condSubQ(__m512i r, __m512i q)
{
    return _mm512_min_epu64(r, _mm512_sub_epi64(r, q));
}

/** addMod lane-parallel: a, b < q. */
inline __m512i
addMod8(__m512i a, __m512i b, __m512i q)
{
    return condSubQ(_mm512_add_epi64(a, b), q);
}

/** subMod lane-parallel: a, b < q < 2^63. */
inline __m512i
subMod8(__m512i a, __m512i b, __m512i q)
{
    // a - b wraps above a - b + q exactly when a < b.
    const __m512i d = _mm512_sub_epi64(a, b);
    return _mm512_min_epu64(d, _mm512_add_epi64(d, q));
}

/**
 * Shoup multiply: x * w mod q with w < q and wsh = floor(w * 2^64 / q)
 * (per-lane w/wsh). Exact canonical result for any 64-bit x.
 */
inline __m512i
shoupMul8(__m512i x, __m512i w, __m512i wsh, __m512i q)
{
    const __m512i qhat = mulhi64(x, wsh);
    const __m512i r = _mm512_sub_epi64(_mm512_mullo_epi64(x, w),
                                       _mm512_mullo_epi64(qhat, q));
    return condSubQ(r, q);
}

/**
 * Lane-parallel replay of Barrett::reduce on x = a*b (per-lane b):
 * q1 = x >> (k-1); q3 = (q1 * mu) >> (k+1); r = x - q3*q, then the
 * worst-case two correction subtracts, branchless. q3 needs only one
 * high half: with mu2 = mu << (62-k) (< 2^64, as mu <= 2^(k+1)),
 * mulhi(2*q1, mu2) = (q1 * mu * 2^(63-k)) >> 64 = q3. Shift counts are
 * per-call vectors (`_mm512_sllv_epi64` takes counts >= 64 as 0).
 */
inline __m512i
barrettMul8(__m512i a, __m512i b, __m512i q, __m512i mu2, __m512i sh_hi,
            __m512i sh_lo)
{
    __m512i x_hi, x_lo;
    mul64wide(a, b, x_hi, x_lo);
    // x < q^2 < 2^(2k), so 2*q1 = (x >> (k-2)) & ~1 < 2^(k+2) fits a
    // lane; the ternary-logic immediate 0xF8 is A | (B & C).
    const __m512i q1x2 = _mm512_ternarylogic_epi64(
        _mm512_sllv_epi64(x_hi, sh_hi), _mm512_srlv_epi64(x_lo, sh_lo),
        splat(~1ull), 0xF8);
    const __m512i q3 = mulhi64(q1x2, mu2);
    // True remainder is in [0, 3q) and fits 64 bits, so wrapping
    // low-64 arithmetic computes it exactly.
    __m512i r = _mm512_sub_epi64(x_lo, _mm512_mullo_epi64(q3, q));
    r = condSubQ(r, q);
    return condSubQ(r, q);
}

// --- elementwise kernels --------------------------------------------------

void
addModAvx512(u64 *dst, const u64 *a, const u64 *b, size_t n, u64 q)
{
    const __m512i qv = splat(q);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeu(dst + i, addMod8(loadu(a + i), loadu(b + i), qv));
    for (; i < n; ++i)
        dst[i] = addMod(a[i], b[i], q);
}

void
subModAvx512(u64 *dst, const u64 *a, const u64 *b, size_t n, u64 q)
{
    const __m512i qv = splat(q);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeu(dst + i, subMod8(loadu(a + i), loadu(b + i), qv));
    for (; i < n; ++i)
        dst[i] = subMod(a[i], b[i], q);
}

void
negModAvx512(u64 *dst, const u64 *a, size_t n, u64 q)
{
    const __m512i qv = splat(q);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = loadu(a + i);
        // q - x on the nonzero lanes, 0 elsewhere.
        storeu(dst + i,
               _mm512_maskz_sub_epi64(_mm512_test_epi64_mask(x, x), qv, x));
    }
    for (; i < n; ++i)
        dst[i] = negMod(a[i], q);
}

void
mulModAvx512(u64 *dst, const u64 *a, const u64 *b, size_t n,
             const Barrett &br)
{
    const unsigned k = br.kBits();
    const __m512i qv = splat(br.modulus());
    const __m512i mu2 = splat(br.mu() << (62 - k));
    const __m512i sh_hi = splat(66 - k);
    const __m512i sh_lo = splat(k - 2);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeu(dst + i, barrettMul8(loadu(a + i), loadu(b + i), qv, mu2,
                                    sh_hi, sh_lo));
    for (; i < n; ++i)
        dst[i] = br.mul(a[i], b[i]);
}

void
mulConstAvx512(u64 *dst, const u64 *a, size_t n, u64 c, const Barrett &br)
{
    const u64 q = br.modulus();
    const __m512i qv = splat(q);
    const __m512i cv = splat(c);
    const __m512i cshv = splat(shoupPrecompute(c, q)); // once per call
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeu(dst + i, shoupMul8(loadu(a + i), cv, cshv, qv));
    for (; i < n; ++i)
        dst[i] = br.mul(a[i], c);
}

void
macConstAvx512(u64 *dst, const u64 *a, size_t n, u64 c, const Barrett &br)
{
    const u64 q = br.modulus();
    const __m512i qv = splat(q);
    const __m512i cv = splat(c);
    const __m512i cshv = splat(shoupPrecompute(c, q));
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i prod = shoupMul8(loadu(a + i), cv, cshv, qv);
        storeu(dst + i, addMod8(loadu(dst + i), prod, qv));
    }
    for (; i < n; ++i)
        dst[i] = addMod(dst[i], br.mul(a[i], c), q);
}

// --- NTT ------------------------------------------------------------------
//
// A stage with butterfly span t < 8 works on 16 consecutive elements,
// 8 / t blocks of [t u-values, t v-values]. Two loads A (elements
// 0-7) and B (8-15) are split into U = all u-values and V = all
// v-values by one `_mm512_permutex2var_epi64` each (index e < 8 picks
// A[e], e >= 8 picks B[e - 8]); the butterfly runs on (U, V) and
// another two permutes interleave the results (lo, hi) back into
// place. Lane l of U belongs to block l / t, so the stage's twiddles
// are loaded once per block and repeated t times.

/** Gather/scatter index vectors of one small-t stage. */
struct SmallStage
{
    __m512i u, v;       ///< A,B -> U and A,B -> V
    __m512i out0, out1; ///< lo,hi -> elements 0-7 and 8-15
    __m512i tw;         ///< repeats block twiddles over each block's lanes
};

inline SmallStage
smallStage(size_t t)
{
    switch (t) {
      case 4:
        return {_mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
                _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
                _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
                _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
                _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1)};
      case 2:
        return {_mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13),
                _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15),
                _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11),
                _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15),
                _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3)};
      default: // t == 1
        return {_mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
                _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15),
                _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11),
                _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15),
                _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7)};
    }
}

/**
 * The 8 / t block twiddles starting at `w`, each repeated over its
 * block's t lanes (t == 1 needs no repeat). Reads exactly 8 / t entries.
 */
inline __m512i
blockTwiddles(const u64 *w, size_t t, __m512i tw)
{
    switch (t) {
      case 4:
        return _mm512_permutexvar_epi64(
            tw, _mm512_castsi128_si512(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(w))));
      case 2:
        return _mm512_permutexvar_epi64(
            tw, _mm512_castsi256_si512(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(w))));
      default: // t == 1
        return loadu(w);
    }
}

void
nttForwardAvx512(u64 *a, size_t n, const NttTables &tb)
{
    if (n < 16) {
        scalarKernels().nttForward(a, n, tb);
        return;
    }
    const __m512i qv = splat(tb.q);
    size_t t = n;
    for (size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        if (t >= 8) {
            // Lane-parallel across the inner j-loop: one twiddle per
            // block, broadcast; t is a power of two, so no j tail.
            for (size_t i = 0; i < m; ++i) {
                const __m512i wv = splat(tb.roots[m + i]);
                const __m512i wsv = splat(tb.rootsShoup[m + i]);
                u64 *p = a + 2 * i * t;
                for (size_t j = 0; j < t; j += 8) {
                    const __m512i u = loadu(p + j);
                    const __m512i v =
                        shoupMul8(loadu(p + j + t), wv, wsv, qv);
                    storeu(p + j, addMod8(u, v, qv));
                    storeu(p + j + t, subMod8(u, v, qv));
                }
            }
            continue;
        }
        // n >= 16, so m = n / (2t) is a multiple of the 8 / t blocks
        // one 16-element step covers: no block tail.
        const SmallStage st = smallStage(t);
        const size_t blocks = 8 / t;
        for (size_t i = 0; i < m; i += blocks) {
            u64 *p = a + 2 * i * t;
            const __m512i blk_a = loadu(p);
            const __m512i blk_b = loadu(p + 8);
            const __m512i u = _mm512_permutex2var_epi64(blk_a, st.u, blk_b);
            const __m512i v0 =
                _mm512_permutex2var_epi64(blk_a, st.v, blk_b);
            const __m512i wv = blockTwiddles(tb.roots + m + i, t, st.tw);
            const __m512i wsv =
                blockTwiddles(tb.rootsShoup + m + i, t, st.tw);
            const __m512i v = shoupMul8(v0, wv, wsv, qv);
            const __m512i lo = addMod8(u, v, qv);
            const __m512i hi = subMod8(u, v, qv);
            storeu(p, _mm512_permutex2var_epi64(lo, st.out0, hi));
            storeu(p + 8, _mm512_permutex2var_epi64(lo, st.out1, hi));
        }
    }
}

void
nttInverseAvx512(u64 *a, size_t n, const NttTables &tb)
{
    if (n < 16) {
        scalarKernels().nttInverse(a, n, tb);
        return;
    }
    const __m512i qv = splat(tb.q);
    size_t t = 1;
    for (size_t m = n; m > 1; m >>= 1, t <<= 1) {
        const size_t h = m >> 1;
        if (t >= 8) {
            for (size_t i = 0; i < h; ++i) {
                const __m512i wv = splat(tb.invRoots[h + i]);
                const __m512i wsv = splat(tb.invRootsShoup[h + i]);
                u64 *p = a + 2 * i * t;
                for (size_t j = 0; j < t; j += 8) {
                    const __m512i u = loadu(p + j);
                    const __m512i v = loadu(p + j + t);
                    storeu(p + j, addMod8(u, v, qv));
                    storeu(p + j + t,
                           shoupMul8(subMod8(u, v, qv), wv, wsv, qv));
                }
            }
            continue;
        }
        const SmallStage st = smallStage(t);
        const size_t blocks = 8 / t;
        for (size_t i = 0; i < h; i += blocks) {
            u64 *p = a + 2 * i * t;
            const __m512i blk_a = loadu(p);
            const __m512i blk_b = loadu(p + 8);
            const __m512i u = _mm512_permutex2var_epi64(blk_a, st.u, blk_b);
            const __m512i v = _mm512_permutex2var_epi64(blk_a, st.v, blk_b);
            const __m512i wv = blockTwiddles(tb.invRoots + h + i, t, st.tw);
            const __m512i wsv =
                blockTwiddles(tb.invRootsShoup + h + i, t, st.tw);
            const __m512i lo = addMod8(u, v, qv);
            const __m512i hi = shoupMul8(subMod8(u, v, qv), wv, wsv, qv);
            storeu(p, _mm512_permutex2var_epi64(lo, st.out0, hi));
            storeu(p + 8, _mm512_permutex2var_epi64(lo, st.out1, hi));
        }
    }
}

} // namespace

const KernelTable *
avx512KernelsOrNull()
{
    static const KernelTable table = {
        addModAvx512,       subModAvx512,       negModAvx512,
        mulModAvx512,       mulConstAvx512,     macConstAvx512,
        nttForwardAvx512,   nttInverseAvx512,
    };
    return &table;
}

} // namespace kernels
} // namespace effact

#else // !(__AVX512F__ && __AVX512DQ__)

namespace effact {
namespace kernels {

const KernelTable *
avx512KernelsOrNull()
{
    return nullptr;
}

} // namespace kernels
} // namespace effact

#endif
