/**
 * @file
 * Small bit-manipulation helpers shared across the NTT, automorphism and
 * simulator code.
 */
#ifndef EFFACT_COMMON_BITOPS_H
#define EFFACT_COMMON_BITOPS_H

#include <cstdint>

#include "common/logging.h"

namespace effact {

/** Returns true iff `x` is a (nonzero) power of two. */
constexpr bool
isPowerOfTwo(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** floor(log2(x)) for x > 0. */
constexpr uint32_t
log2Floor(uint64_t x)
{
    uint32_t r = 0;
    while (x >>= 1)
        ++r;
    return r;
}

/** ceil(log2(x)) for x > 0. */
constexpr uint32_t
log2Ceil(uint64_t x)
{
    return x <= 1 ? 0 : log2Floor(x - 1) + 1;
}

/** Exact log2 for powers of two; panics on anything else. */
constexpr uint32_t
log2Exact(uint64_t x)
{
    EFFACT_ASSERT(isPowerOfTwo(x), "log2Exact(%llu): not a power of two",
                  static_cast<unsigned long long>(x));
    return log2Floor(x);
}

/** Reverses the low `bits` bits of `x`. */
constexpr uint32_t
bitReverse(uint32_t x, uint32_t bits)
{
    uint32_t r = 0;
    for (uint32_t i = 0; i < bits; ++i) {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    return r;
}

/** Ceil division for unsigned integers. */
constexpr uint64_t
ceilDiv(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Baby-step count of a baby-step/giant-step split over `count` items
 * (diagonals of a linear transform): the smallest power of two n1 with
 * n1 * n1 >= count.
 */
constexpr uint64_t
babyFor(uint64_t count)
{
    uint64_t n1 = 1;
    while (n1 * n1 < count)
        n1 <<= 1;
    return n1;
}

} // namespace effact

#endif // EFFACT_COMMON_BITOPS_H
