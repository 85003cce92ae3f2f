/**
 * @file
 * NTT correctness: round trips, linearity, convolution vs schoolbook
 * ground truth, and the Montgomery-form commutation Eq. 5 relies on.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "reference_bconv.h"
#include "reference_ntt.h"

namespace effact {
namespace {

std::vector<u64>
randomPoly(Rng &rng, size_t n, u64 q)
{
    std::vector<u64> a(n);
    for (auto &c : a)
        c = rng.uniform(q);
    return a;
}

/**
 * One coefficient of the negacyclic product a * b mod (X^N + 1, q),
 * computed directly in O(N): c[k] = sum_{i+j=k} a[i]b[j]
 *                                 - sum_{i+j=k+N} a[i]b[j].
 * Lets large transforms check real convolution output on a sample of
 * coefficients instead of paying the full O(N^2) schoolbook.
 */
u64
negacyclicCoeff(const std::vector<u64> &a, const std::vector<u64> &b,
                size_t k, u64 q)
{
    const size_t n = a.size();
    u64 c = 0;
    for (size_t i = 0; i < n; ++i) {
        u64 term = mulMod(a[i], b[(k + n - i) % n], q);
        c = i <= k ? addMod(c, term, q) : subMod(c, term, q);
    }
    return c;
}

class NttSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(NttSizes, ForwardBackwardRoundTrip)
{
    const size_t n = GetParam();
    const u64 q = genNttPrimes(1, 54, n)[0];
    Ntt ntt(n, q);
    Rng rng(n);
    auto a = randomPoly(rng, n, q);
    auto b = a;
    ntt.forward(b);
    ntt.backward(b);
    EXPECT_EQ(a, b);
}

TEST_P(NttSizes, ConvolutionMatchesSchoolbook)
{
    const size_t n = GetParam();
    const u64 q = genNttPrimes(1, 50, n)[0];
    Ntt ntt(n, q);
    Rng rng(n + 1);
    auto a = randomPoly(rng, n, q);
    auto b = randomPoly(rng, n, q);

    auto fa = a, fb = b;
    ntt.forward(fa);
    ntt.forward(fb);
    for (size_t i = 0; i < n; ++i)
        fa[i] = mulMod(fa[i], fb[i], q);
    ntt.backward(fa);

    if (n <= 512) {
        // Small sizes: full O(N^2) schoolbook, every coefficient.
        EXPECT_EQ(fa, negacyclicMulSchoolbook(a.data(), b.data(), n, q));
        return;
    }
    // Large sizes: check a deterministic sample of coefficients against
    // the O(N)-per-coefficient direct convolution (ends, middle, and a
    // random spread), capping the reference cost at O(kN).
    constexpr size_t kSamples = 24;
    Rng pick(n + 2);
    std::vector<size_t> idx = {0, 1, n / 2, n - 2, n - 1};
    while (idx.size() < kSamples)
        idx.push_back(pick.uniform(n));
    for (size_t k : idx)
        ASSERT_EQ(fa[k], negacyclicCoeff(a, b, k, q)) << "coeff " << k;
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, NttSizes,
                         ::testing::Values(4, 8, 64, 256, 1024, 4096));

TEST(Ntt, Linearity)
{
    const size_t n = 256;
    const u64 q = genNttPrimes(1, 45, n)[0];
    Ntt ntt(n, q);
    Rng rng(11);
    auto a = randomPoly(rng, n, q);
    auto b = randomPoly(rng, n, q);
    // NTT(a + b) == NTT(a) + NTT(b)  (Eq. 2, second identity)
    std::vector<u64> sum(n);
    for (size_t i = 0; i < n; ++i)
        sum[i] = addMod(a[i], b[i], q);
    auto fa = a, fb = b;
    ntt.forward(fa);
    ntt.forward(fb);
    ntt.forward(sum);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(sum[i], addMod(fa[i], fb[i], q));
}

TEST(Ntt, ConstantPolynomialHasFlatSpectrum)
{
    const size_t n = 64;
    const u64 q = genNttPrimes(1, 40, n)[0];
    Ntt ntt(n, q);
    std::vector<u64> a(n, 0);
    a[0] = 7; // constant polynomial 7
    ntt.forward(a);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(a[i], 7u); // constant evaluates to itself everywhere
}

TEST(Ntt, MontgomeryFormCommutesWithNtt)
{
    // SM representation survives NTT because NTT is linear: this is what
    // lets EFFACT keep all data in SM form through (i)NTT (Sec. IV-D5).
    const size_t n = 256;
    const u64 q = genNttPrimes(1, 50, n)[0];
    Ntt ntt(n, q);
    Montgomery mont(q);
    Rng rng(13);
    auto a = randomPoly(rng, n, q);
    auto a_sm = a;
    for (auto &c : a_sm)
        c = mont.toMont(c);
    ntt.forward(a);
    ntt.forward(a_sm);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(a_sm[i], mont.toMont(a[i]));
}

TEST(Ntt, RejectsNonNttFriendlyModulus)
{
    EXPECT_DEATH(Ntt(1024, 998244353ULL + 2), "NTT-friendly");
}

} // namespace
} // namespace effact
