/**
 * @file
 * AVX2 kernel tier: 4 x u64 lanes for the NTT butterflies, the
 * Barrett modular multiplies and the BConv MAC chains.
 *
 * This translation unit is the only one compiled with -mavx2 (set per
 * source file in src/CMakeLists.txt); it is reached exclusively
 * through the dispatch table, which only selects it after a CPUID
 * check, so no AVX2 instruction can execute on a host without the
 * feature. On builds where the compiler cannot target AVX2 the file
 * degrades to a stub returning nullptr and dispatch falls back to the
 * scalar oracle.
 *
 * Exactness. Every kernel returns the canonical representative in
 * [0, q) — the same unique value the scalar Barrett code computes —
 * so the tiers are exact-`u64`-identical by construction:
 *
 *  - 64x64->128 products are composed from four widening 32-bit
 *    multiplies (`_mm256_mul_epu32`) with exact carry propagation.
 *  - Barrett reduction replays the scalar algorithm lane-parallel
 *    (same mu, same k, correction loop unrolled to its worst case of
 *    two branchless conditional subtracts).
 *  - NTT twiddle multiplies use Shoup pre-scaling (tables precomputed
 *    per plan, laid out bit-reversed so lane-parallel stages read
 *    them contiguously); the result is reduced to canonical form, so
 *    it equals the scalar Barrett butterfly bit for bit.
 *
 * All comparisons ride signed 64-bit compares: every compared value is
 * < 2^63 (q < 2^62, Barrett intermediates < 3q < 2^61).
 */
#include "math/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace effact {
namespace kernels {
namespace {

inline __m256i
loadu(const u64 *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
storeu(u64 *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** Per-lane 64x64 -> 128 product from widening 32-bit multiplies. */
inline void
mul64wide(__m256i a, __m256i b, __m256i &hi, __m256i &lo)
{
    const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFFll);
    const __m256i a_hi = _mm256_srli_epi64(a, 32);
    const __m256i b_hi = _mm256_srli_epi64(b, 32);
    const __m256i ll = _mm256_mul_epu32(a, b);
    const __m256i lh = _mm256_mul_epu32(a, b_hi);
    const __m256i hl = _mm256_mul_epu32(a_hi, b);
    const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
    // Cross-term column sum: < 3 * 2^32, never overflows a lane.
    const __m256i cross = _mm256_add_epi64(
        _mm256_srli_epi64(ll, 32),
        _mm256_add_epi64(_mm256_and_si256(lh, mask32),
                         _mm256_and_si256(hl, mask32)));
    lo = _mm256_add_epi64(
        ll, _mm256_slli_epi64(_mm256_add_epi64(lh, hl), 32));
    hi = _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(cross, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(lh, 32),
                         _mm256_srli_epi64(hl, 32)));
}

/** Per-lane low 64 bits of a*b. */
inline __m256i
mullo64(__m256i a, __m256i b)
{
    const __m256i a_hi = _mm256_srli_epi64(a, 32);
    const __m256i b_hi = _mm256_srli_epi64(b, 32);
    const __m256i ll = _mm256_mul_epu32(a, b);
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                         _mm256_mul_epu32(a_hi, b));
    return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

/** Per-lane high 64 bits of a*b. */
inline __m256i
mulhi64(__m256i a, __m256i b)
{
    __m256i hi, lo;
    mul64wide(a, b, hi, lo);
    return hi;
}

/** r >= q ? r - q : r, for r, q < 2^63 (signed compare is safe). */
inline __m256i
condSubQ(__m256i r, __m256i q)
{
    // q > r  <=>  r < q: keep; else subtract q.
    const __m256i keep = _mm256_cmpgt_epi64(q, r);
    return _mm256_sub_epi64(r, _mm256_andnot_si256(keep, q));
}

/** addMod lane-parallel: a, b < q. */
inline __m256i
addMod4(__m256i a, __m256i b, __m256i q)
{
    return condSubQ(_mm256_add_epi64(a, b), q);
}

/** subMod lane-parallel: a, b < q. */
inline __m256i
subMod4(__m256i a, __m256i b, __m256i q)
{
    const __m256i borrow = _mm256_cmpgt_epi64(b, a);
    return _mm256_add_epi64(_mm256_sub_epi64(a, b),
                            _mm256_and_si256(borrow, q));
}

/**
 * Shoup multiply: x * w mod q with w < q and wsh = floor(w * 2^64 / q)
 * (per-lane w/wsh). Exact canonical result for any 64-bit x.
 */
inline __m256i
shoupMul4(__m256i x, __m256i w, __m256i wsh, __m256i q)
{
    const __m256i qhat = mulhi64(x, wsh);
    const __m256i r =
        _mm256_sub_epi64(mullo64(x, w), mullo64(qhat, q));
    return condSubQ(r, q);
}

/** Runtime-count 64-bit shifts (stage shift amounts vary per call). */
inline __m256i
sllVar(__m256i a, unsigned count)
{
    return _mm256_sll_epi64(a, _mm_cvtsi32_si128(static_cast<int>(count)));
}

inline __m256i
srlVar(__m256i a, unsigned count)
{
    return _mm256_srl_epi64(a, _mm_cvtsi32_si128(static_cast<int>(count)));
}

/**
 * Lane-parallel replay of Barrett::reduce on x = a*b (per-lane b):
 * q1 = x >> (k-1); q3 = (q1 * mu) >> (k+1); r = x - q3*q, then the
 * worst-case two correction subtracts, branchless.
 */
inline __m256i
barrettMul4(__m256i a, __m256i b, __m256i q, __m256i mu, unsigned k)
{
    __m256i x_hi, x_lo;
    mul64wide(a, b, x_hi, x_lo);
    // x < q^2 < 2^(2k), so q1 = x >> (k-1) < 2^(k+1) fits a lane.
    const __m256i q1 = _mm256_or_si256(sllVar(x_hi, 65 - k),
                                       srlVar(x_lo, k - 1));
    __m256i q2_hi, q2_lo;
    mul64wide(q1, mu, q2_hi, q2_lo);
    const __m256i q3 = _mm256_or_si256(sllVar(q2_hi, 63 - k),
                                       srlVar(q2_lo, k + 1));
    // True remainder is in [0, 3q) and fits 64 bits, so wrapping
    // low-64 arithmetic computes it exactly.
    __m256i r = _mm256_sub_epi64(x_lo, mullo64(q3, q));
    r = condSubQ(r, q);
    return condSubQ(r, q);
}

/** [w0, w1] (two u64s at p) -> [w0, w0, w1, w1]. */
inline __m256i
expandPairs(const u64 *p)
{
    const __m128i two = _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    return _mm256_permute4x64_epi64(_mm256_castsi128_si256(two), 0x50);
}

// --- elementwise kernels --------------------------------------------------

void
addModAvx2(u64 *dst, const u64 *a, const u64 *b, size_t n, u64 q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        storeu(dst + i, addMod4(loadu(a + i), loadu(b + i), qv));
    for (; i < n; ++i)
        dst[i] = addMod(a[i], b[i], q);
}

void
subModAvx2(u64 *dst, const u64 *a, const u64 *b, size_t n, u64 q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        storeu(dst + i, subMod4(loadu(a + i), loadu(b + i), qv));
    for (; i < n; ++i)
        dst[i] = subMod(a[i], b[i], q);
}

void
negModAvx2(u64 *dst, const u64 *a, size_t n, u64 q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    const __m256i zero = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = loadu(a + i);
        const __m256i is_zero = _mm256_cmpeq_epi64(x, zero);
        const __m256i r =
            _mm256_andnot_si256(is_zero, _mm256_sub_epi64(qv, x));
        storeu(dst + i, r);
    }
    for (; i < n; ++i)
        dst[i] = negMod(a[i], q);
}

void
mulModAvx2(u64 *dst, const u64 *a, const u64 *b, size_t n, const Barrett &br)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(br.modulus()));
    const __m256i muv = _mm256_set1_epi64x(static_cast<long long>(br.mu()));
    const unsigned k = br.kBits();
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        storeu(dst + i,
               barrettMul4(loadu(a + i), loadu(b + i), qv, muv, k));
    for (; i < n; ++i)
        dst[i] = br.mul(a[i], b[i]);
}

void
mulConstAvx2(u64 *dst, const u64 *a, size_t n, u64 c, const Barrett &br)
{
    const u64 q = br.modulus();
    const u64 csh = shoupPrecompute(c, q); // hoisted once per call
    const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    const __m256i cv = _mm256_set1_epi64x(static_cast<long long>(c));
    const __m256i cshv = _mm256_set1_epi64x(static_cast<long long>(csh));
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        storeu(dst + i, shoupMul4(loadu(a + i), cv, cshv, qv));
    for (; i < n; ++i)
        dst[i] = br.mul(a[i], c);
}

void
macConstAvx2(u64 *dst, const u64 *a, size_t n, u64 c, const Barrett &br)
{
    const u64 q = br.modulus();
    const u64 csh = shoupPrecompute(c, q);
    const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    const __m256i cv = _mm256_set1_epi64x(static_cast<long long>(c));
    const __m256i cshv = _mm256_set1_epi64x(static_cast<long long>(csh));
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i prod = shoupMul4(loadu(a + i), cv, cshv, qv);
        storeu(dst + i, addMod4(loadu(dst + i), prod, qv));
    }
    for (; i < n; ++i)
        dst[i] = addMod(dst[i], br.mul(a[i], c), q);
}

// --- NTT ------------------------------------------------------------------

/** Scalar CT butterfly for the tiny-stage tails (oracle arithmetic). */
inline void
ctButterfly(u64 *a, size_t j, size_t t, u64 w, u64 q, const Barrett &br)
{
    const u64 u = a[j];
    const u64 v = br.mul(a[j + t], w);
    a[j] = addMod(u, v, q);
    a[j + t] = subMod(u, v, q);
}

/** Scalar GS butterfly for the tiny-stage tails. */
inline void
gsButterfly(u64 *a, size_t j, size_t t, u64 w, u64 q, const Barrett &br)
{
    const u64 u = a[j];
    const u64 v = a[j + t];
    a[j] = addMod(u, v, q);
    a[j + t] = br.mul(subMod(u, v, q), w);
}

void
nttForwardAvx2(u64 *a, size_t n, const NttTables &tb)
{
    const u64 q = tb.q;
    const Barrett &br = *tb.barrett;
    const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    size_t t = n;
    for (size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        if (t >= 4) {
            // Lane-parallel across the inner j-loop: one twiddle per
            // block, broadcast; t is a power of two, so no j tail.
            for (size_t i = 0; i < m; ++i) {
                const __m256i wv = _mm256_set1_epi64x(
                    static_cast<long long>(tb.roots[m + i]));
                const __m256i wsv = _mm256_set1_epi64x(
                    static_cast<long long>(tb.rootsShoup[m + i]));
                u64 *p = a + 2 * i * t;
                for (size_t j = 0; j < t; j += 4) {
                    const __m256i u = loadu(p + j);
                    const __m256i v =
                        shoupMul4(loadu(p + j + t), wv, wsv, qv);
                    storeu(p + j, addMod4(u, v, qv));
                    storeu(p + j + t, subMod4(u, v, qv));
                }
            }
        } else if (t == 2) {
            // Two i-blocks per vector: [u0 u1 v0 v1 | u2 u3 v2 v3];
            // twiddles are contiguous at roots[m + i], duplicated into
            // lane pairs.
            size_t i = 0;
            for (; i + 2 <= m; i += 2) {
                u64 *p = a + 4 * i;
                const __m256i blk_a = loadu(p);
                const __m256i blk_b = loadu(p + 4);
                const __m256i u =
                    _mm256_permute2x128_si256(blk_a, blk_b, 0x20);
                const __m256i v0 =
                    _mm256_permute2x128_si256(blk_a, blk_b, 0x31);
                const __m256i wv = expandPairs(tb.roots + m + i);
                const __m256i wsv = expandPairs(tb.rootsShoup + m + i);
                const __m256i v = shoupMul4(v0, wv, wsv, qv);
                const __m256i lo = addMod4(u, v, qv);
                const __m256i hi = subMod4(u, v, qv);
                storeu(p, _mm256_permute2x128_si256(lo, hi, 0x20));
                storeu(p + 4, _mm256_permute2x128_si256(lo, hi, 0x31));
            }
            for (; i < m; ++i) {
                const u64 w = tb.roots[m + i];
                ctButterfly(a, 4 * i, 2, w, q, br);
                ctButterfly(a, 4 * i + 1, 2, w, q, br);
            }
        } else { // t == 1: four interleaved butterflies per 8 elements
            size_t i = 0;
            for (; i + 4 <= m; i += 4) {
                u64 *p = a + 2 * i;
                const __m256i blk_a = loadu(p);     // [u0 v0 u1 v1]
                const __m256i blk_b = loadu(p + 4); // [u2 v2 u3 v3]
                const __m256i u = _mm256_unpacklo_epi64(blk_a, blk_b);
                const __m256i v0 = _mm256_unpackhi_epi64(blk_a, blk_b);
                // roots[m+i..m+i+3] = [w0 w1 w2 w3] -> unpack order
                // [w0 w2 w1 w3] to match the data scramble.
                const __m256i wv = _mm256_permute4x64_epi64(
                    loadu(tb.roots + m + i), 0xD8);
                const __m256i wsv = _mm256_permute4x64_epi64(
                    loadu(tb.rootsShoup + m + i), 0xD8);
                const __m256i v = shoupMul4(v0, wv, wsv, qv);
                const __m256i lo = addMod4(u, v, qv);
                const __m256i hi = subMod4(u, v, qv);
                storeu(p, _mm256_unpacklo_epi64(lo, hi));
                storeu(p + 4, _mm256_unpackhi_epi64(lo, hi));
            }
            for (; i < m; ++i)
                ctButterfly(a, 2 * i, 1, tb.roots[m + i], q, br);
        }
    }
}

void
nttInverseAvx2(u64 *a, size_t n, const NttTables &tb)
{
    const u64 q = tb.q;
    const Barrett &br = *tb.barrett;
    const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    size_t t = 1;
    for (size_t m = n; m > 1; m >>= 1) {
        const size_t h = m >> 1;
        if (t >= 4) {
            for (size_t i = 0; i < h; ++i) {
                const __m256i wv = _mm256_set1_epi64x(
                    static_cast<long long>(tb.invRoots[h + i]));
                const __m256i wsv = _mm256_set1_epi64x(
                    static_cast<long long>(tb.invRootsShoup[h + i]));
                u64 *p = a + 2 * i * t;
                for (size_t j = 0; j < t; j += 4) {
                    const __m256i u = loadu(p + j);
                    const __m256i v = loadu(p + j + t);
                    storeu(p + j, addMod4(u, v, qv));
                    storeu(p + j + t,
                           shoupMul4(subMod4(u, v, qv), wv, wsv, qv));
                }
            }
        } else if (t == 2) {
            size_t i = 0;
            for (; i + 2 <= h; i += 2) {
                u64 *p = a + 4 * i;
                const __m256i blk_a = loadu(p);
                const __m256i blk_b = loadu(p + 4);
                const __m256i u =
                    _mm256_permute2x128_si256(blk_a, blk_b, 0x20);
                const __m256i v =
                    _mm256_permute2x128_si256(blk_a, blk_b, 0x31);
                const __m256i wv = expandPairs(tb.invRoots + h + i);
                const __m256i wsv = expandPairs(tb.invRootsShoup + h + i);
                const __m256i lo = addMod4(u, v, qv);
                const __m256i hi =
                    shoupMul4(subMod4(u, v, qv), wv, wsv, qv);
                storeu(p, _mm256_permute2x128_si256(lo, hi, 0x20));
                storeu(p + 4, _mm256_permute2x128_si256(lo, hi, 0x31));
            }
            for (; i < h; ++i) {
                const u64 w = tb.invRoots[h + i];
                gsButterfly(a, 4 * i, 2, w, q, br);
                gsButterfly(a, 4 * i + 1, 2, w, q, br);
            }
        } else { // t == 1
            size_t i = 0;
            for (; i + 4 <= h; i += 4) {
                u64 *p = a + 2 * i;
                const __m256i blk_a = loadu(p);
                const __m256i blk_b = loadu(p + 4);
                const __m256i u = _mm256_unpacklo_epi64(blk_a, blk_b);
                const __m256i v = _mm256_unpackhi_epi64(blk_a, blk_b);
                const __m256i wv = _mm256_permute4x64_epi64(
                    loadu(tb.invRoots + h + i), 0xD8);
                const __m256i wsv = _mm256_permute4x64_epi64(
                    loadu(tb.invRootsShoup + h + i), 0xD8);
                const __m256i lo = addMod4(u, v, qv);
                const __m256i hi =
                    shoupMul4(subMod4(u, v, qv), wv, wsv, qv);
                storeu(p, _mm256_unpacklo_epi64(lo, hi));
                storeu(p + 4, _mm256_unpackhi_epi64(lo, hi));
            }
            for (; i < h; ++i)
                gsButterfly(a, 2 * i, 1, tb.invRoots[h + i], q, br);
        }
        t <<= 1;
    }
}

} // namespace

const KernelTable *
avx2KernelsOrNull()
{
    static const KernelTable table = {
        addModAvx2,       subModAvx2,       negModAvx2,
        mulModAvx2,       mulConstAvx2,     macConstAvx2,
        nttForwardAvx2,   nttInverseAvx2,
    };
    return &table;
}

} // namespace kernels
} // namespace effact

#else // !__AVX2__

namespace effact {
namespace kernels {

const KernelTable *
avx2KernelsOrNull()
{
    return nullptr;
}

} // namespace kernels
} // namespace effact

#endif
