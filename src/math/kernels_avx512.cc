/**
 * @file
 * AVX-512 kernel tier: the lane traits that run kernels_vector.inc on
 * 8 x u64 lanes.
 *
 * This translation unit is the only one compiled with -mavx512f
 * -mavx512dq (set per source file in src/CMakeLists.txt); it is
 * reached exclusively through the dispatch table, which only selects
 * it after a CPUID check for both features. On builds where the
 * compiler cannot target them the file degrades to a stub returning
 * nullptr and dispatch falls back to the AVX2 tier.
 *
 * What AVX-512 supplies:
 *
 *  - `_mm512_mullo_epi64` (DQ) gives the low half of a 64x64 product
 *    in one instruction; high halves still come from four widening
 *    32-bit multiplies (`_mm512_mul_epu32`).
 *  - Unsigned min exists, so each conditional subtract is
 *    `_mm512_min_epu64(r, r - q)`: r - q wraps above r exactly when
 *    r < q. No signed-compare headroom argument is needed.
 *  - Sub-vector NTT spans t < 8 regrouped by
 *    `_mm512_permutex2var_epi64` against index vectors computed from t.
 */
#include "math/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace effact {
namespace kernels {
namespace {

struct Avx512
{
    using Vec = __m512i;
    static constexpr size_t kLanes = 8;

    static Vec load(const u64 *p) { return _mm512_loadu_si512(p); }
    static void store(u64 *p, Vec v) { _mm512_storeu_si512(p, v); }

    static Vec
    splat(u64 x)
    {
        return _mm512_set1_epi64(static_cast<long long>(x));
    }

    static Vec add(Vec a, Vec b) { return _mm512_add_epi64(a, b); }
    static Vec sub(Vec a, Vec b) { return _mm512_sub_epi64(a, b); }
    static Vec bitAnd(Vec a, Vec b) { return _mm512_and_si512(a, b); }
    static Vec bitOr(Vec a, Vec b) { return _mm512_or_si512(a, b); }
    static Vec shl(Vec a, Vec count) { return _mm512_sllv_epi64(a, count); }
    static Vec shr(Vec a, Vec count) { return _mm512_srlv_epi64(a, count); }

    /** Per-lane 64x64 -> 128 product from widening 32-bit multiplies. */
    static void
    mulWide(Vec a, Vec b, Vec &hi, Vec &lo)
    {
        const Vec mask32 = splat(0xFFFFFFFFull);
        const Vec a_hi = _mm512_srli_epi64(a, 32);
        const Vec b_hi = _mm512_srli_epi64(b, 32);
        const Vec ll = _mm512_mul_epu32(a, b);
        const Vec lh = _mm512_mul_epu32(a, b_hi);
        const Vec hl = _mm512_mul_epu32(a_hi, b);
        const Vec hh = _mm512_mul_epu32(a_hi, b_hi);
        // t = hl + ll.hi and u = lh + t.lo each stay below 2^64, and
        // a*b = (hh + t.hi + u.hi) * 2^64 + u.lo * 2^32 + ll.lo.
        const Vec t = add(hl, _mm512_srli_epi64(ll, 32));
        const Vec u = add(lh, bitAnd(t, mask32));
        hi = add(hh,
                 add(_mm512_srli_epi64(t, 32), _mm512_srli_epi64(u, 32)));
        lo = bitOr(_mm512_slli_epi64(u, 32), bitAnd(ll, mask32));
    }

    static Vec mulLo(Vec a, Vec b) { return _mm512_mullo_epi64(a, b); }

    /** r >= q ? r - q : r, for any r < 2^64. */
    static Vec
    condSub(Vec r, Vec q)
    {
        return _mm512_min_epu64(r, sub(r, q));
    }

    /** subMod lane-parallel: a, b < q < 2^63. */
    static Vec
    subMod(Vec a, Vec b, Vec q)
    {
        // a - b wraps above a - b + q exactly when a < b.
        const Vec d = sub(a, b);
        return _mm512_min_epu64(d, add(d, q));
    }

    /** negMod lane-parallel: q - x on the nonzero lanes, 0 elsewhere. */
    static Vec
    negMod(Vec x, Vec q)
    {
        return _mm512_maskz_sub_epi64(_mm512_test_epi64_mask(x, x), q, x);
    }

    /**
     * Span t < 8: two loads A (elements 0-7) and B (8-15) hold 8 / t
     * blocks of [t u-values, t v-values], and lane l of U and V belongs
     * to block l / t. In `_mm512_permutex2var_epi64(A, idx, B)` an
     * index e < 8 picks A[e] and e >= 8 picks B[e - 8]; the merge picks
     * from (lo, hi) the same way.
     */
    template <size_t T>
    struct Span
    {
        /** Index vector whose lane l is f(l). */
        template <class F>
        static Vec
        indices(F f)
        {
            alignas(64) long long idx[8];
            for (size_t l = 0; l < 8; ++l)
                idx[l] = static_cast<long long>(f(l));
            return _mm512_load_si512(idx);
        }

        /** Lane of (lo, hi) that output element e comes from. */
        static size_t
        source(size_t e)
        {
            return (e % (2 * T) < T ? 0 : 8) + T * (e / (2 * T)) + e % T;
        }

        const Vec uIdx =
            indices([](size_t l) { return 2 * T * (l / T) + l % T; });
        const Vec vIdx =
            indices([](size_t l) { return 2 * T * (l / T) + T + l % T; });
        const Vec aIdx = indices([](size_t e) { return source(e); });
        const Vec bIdx = indices([](size_t e) { return source(e + 8); });
        const Vec twIdx = indices([](size_t l) { return l / T; });

        void
        split(Vec a, Vec b, Vec &u, Vec &v) const
        {
            u = _mm512_permutex2var_epi64(a, uIdx, b);
            v = _mm512_permutex2var_epi64(a, vIdx, b);
        }

        /**
         * The 8 / t block twiddles at w, each repeated over its block.
         * Plain 128- and 256-bit loads: a masked 512-bit load measured
         * about 2% slower on n = 256 transforms (Sapphire Rapids).
         */
        Vec
        twiddles(const u64 *w) const
        {
            if constexpr (T == 1)
                return load(w);
            else if constexpr (T == 2)
                return _mm512_permutexvar_epi64(
                    twIdx, _mm512_castsi256_si512(_mm256_loadu_si256(
                               reinterpret_cast<const __m256i *>(w))));
            else
                return _mm512_permutexvar_epi64(
                    twIdx, _mm512_castsi128_si512(_mm_loadu_si128(
                               reinterpret_cast<const __m128i *>(w))));
        }

        void
        merge(Vec lo, Vec hi, Vec &a, Vec &b) const
        {
            a = _mm512_permutex2var_epi64(lo, aIdx, hi);
            b = _mm512_permutex2var_epi64(lo, bIdx, hi);
        }
    };
};

} // namespace
} // namespace kernels
} // namespace effact

#include "math/kernels_vector.inc"

namespace effact {
namespace kernels {

const KernelTable *
avx512KernelsOrNull()
{
    return &vectorKernels<Avx512>();
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
