/**
 * @file
 * AVX2 kernel tier: the lane traits that run kernels_vector.inc on
 * 4 x u64 lanes.
 *
 * This translation unit is the only one compiled with -mavx2 (set per
 * source file in src/CMakeLists.txt); it is reached exclusively
 * through the dispatch table, which only selects it after a CPUID
 * check, so no AVX2 instruction can execute on a host without the
 * feature. On builds where the compiler cannot target AVX2 the file
 * degrades to a stub returning nullptr and dispatch falls back to the
 * scalar oracle.
 *
 * What AVX2 supplies:
 *
 *  - 64x64->128 products composed from four widening 32-bit
 *    multiplies (`_mm256_mul_epu32`) with exact carry propagation, and
 *    low halves from three.
 *  - Conditional subtracts and the borrow of subMod on signed 64-bit
 *    compares: every compared value is < 2^63 (q < 2^62, Barrett
 *    intermediates < 3q < 2^61).
 *  - Sub-vector NTT spans regrouped within the two loaded vectors:
 *    128-bit permutes for t == 2, 64-bit unpacks for t == 1.
 */
#include "math/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace effact {
namespace kernels {
namespace {

struct Avx2
{
    using Vec = __m256i;
    static constexpr size_t kLanes = 4;

    static Vec
    load(const u64 *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }

    static void
    store(u64 *p, Vec v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    static Vec
    splat(u64 x)
    {
        return _mm256_set1_epi64x(static_cast<long long>(x));
    }

    static Vec add(Vec a, Vec b) { return _mm256_add_epi64(a, b); }
    static Vec sub(Vec a, Vec b) { return _mm256_sub_epi64(a, b); }
    static Vec bitAnd(Vec a, Vec b) { return _mm256_and_si256(a, b); }
    static Vec bitOr(Vec a, Vec b) { return _mm256_or_si256(a, b); }
    static Vec shl(Vec a, Vec count) { return _mm256_sllv_epi64(a, count); }
    static Vec shr(Vec a, Vec count) { return _mm256_srlv_epi64(a, count); }

    /** Per-lane 64x64 -> 128 product from widening 32-bit multiplies. */
    static void
    mulWide(Vec a, Vec b, Vec &hi, Vec &lo)
    {
        const Vec mask32 = splat(0xFFFFFFFFull);
        const Vec a_hi = _mm256_srli_epi64(a, 32);
        const Vec b_hi = _mm256_srli_epi64(b, 32);
        const Vec ll = _mm256_mul_epu32(a, b);
        const Vec lh = _mm256_mul_epu32(a, b_hi);
        const Vec hl = _mm256_mul_epu32(a_hi, b);
        const Vec hh = _mm256_mul_epu32(a_hi, b_hi);
        // Cross-term column sum: < 3 * 2^32, never overflows a lane.
        const Vec cross = add(_mm256_srli_epi64(ll, 32),
                              add(bitAnd(lh, mask32), bitAnd(hl, mask32)));
        lo = add(ll, _mm256_slli_epi64(add(lh, hl), 32));
        hi = add(add(hh, _mm256_srli_epi64(cross, 32)),
                 add(_mm256_srli_epi64(lh, 32), _mm256_srli_epi64(hl, 32)));
    }

    /** Per-lane low 64 bits of a*b. */
    static Vec
    mulLo(Vec a, Vec b)
    {
        const Vec cross = add(_mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
                              _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
        return add(_mm256_mul_epu32(a, b), _mm256_slli_epi64(cross, 32));
    }

    /** r >= q ? r - q : r, for r, q < 2^63 (signed compare is safe). */
    static Vec
    condSub(Vec r, Vec q)
    {
        // q > r  <=>  r < q: keep; else subtract q.
        return sub(r, _mm256_andnot_si256(_mm256_cmpgt_epi64(q, r), q));
    }

    /** subMod lane-parallel: a, b < q. */
    static Vec
    subMod(Vec a, Vec b, Vec q)
    {
        return add(sub(a, b), bitAnd(_mm256_cmpgt_epi64(b, a), q));
    }

    /** negMod lane-parallel: q - x on the nonzero lanes, 0 elsewhere. */
    static Vec
    negMod(Vec x, Vec q)
    {
        const Vec is_zero = _mm256_cmpeq_epi64(x, _mm256_setzero_si256());
        return _mm256_andnot_si256(is_zero, sub(q, x));
    }

    template <size_t T>
    struct Span;
};

/**
 * t == 2: A = [u0 u1 v0 v1], B = [u2 u3 v2 v3]. Swapping 128-bit
 * halves gives U = [u0 u1 u2 u3] and V = [v0 v1 v2 v3]; the same swap
 * interleaves the results back.
 */
template <>
struct Avx2::Span<2>
{
    static void
    split(Vec a, Vec b, Vec &u, Vec &v)
    {
        u = _mm256_permute2x128_si256(a, b, 0x20);
        v = _mm256_permute2x128_si256(a, b, 0x31);
    }

    /** [w0, w1] -> [w0, w0, w1, w1]. */
    static Vec
    twiddles(const u64 *w)
    {
        const __m128i two =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(w));
        return _mm256_permute4x64_epi64(_mm256_castsi128_si256(two), 0x50);
    }

    static void merge(Vec lo, Vec hi, Vec &a, Vec &b) { split(lo, hi, a, b); }
};

/**
 * t == 1: A = [u0 v0 u1 v1], B = [u2 v2 u3 v3]. The 64-bit unpacks give
 * U = [u0 u2 u1 u3] and V = [v0 v2 v1 v3], so the twiddles
 * [w0 w1 w2 w3] are permuted to [w0 w2 w1 w3]; the same unpacks
 * interleave the results back.
 */
template <>
struct Avx2::Span<1>
{
    static void
    split(Vec a, Vec b, Vec &u, Vec &v)
    {
        u = _mm256_unpacklo_epi64(a, b);
        v = _mm256_unpackhi_epi64(a, b);
    }

    static Vec
    twiddles(const u64 *w)
    {
        return _mm256_permute4x64_epi64(load(w), 0xD8);
    }

    static void merge(Vec lo, Vec hi, Vec &a, Vec &b) { split(lo, hi, a, b); }
};

} // namespace
} // namespace kernels
} // namespace effact

#include "math/kernels_vector.inc"

namespace effact {
namespace kernels {

const KernelTable *
avx2KernelsOrNull()
{
    return &vectorKernels<Avx2>();
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
