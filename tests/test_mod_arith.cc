/**
 * @file
 * Unit and property tests for 64-bit modular arithmetic, Barrett
 * reduction, prime generation, and the Montgomery arithmetic of the
 * Eq. 5 test oracle (tests/support/reference_bconv.h).
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/mod_arith.h"
#include "math/primes.h"
#include "reference_bconv.h"

namespace effact {
namespace {

TEST(ModArith, AddSubBasic)
{
    const u64 q = 17;
    EXPECT_EQ(addMod(9, 9, q), 1u);
    EXPECT_EQ(addMod(0, 0, q), 0u);
    EXPECT_EQ(addMod(16, 16, q), 15u);
    EXPECT_EQ(subMod(3, 9, q), 11u);
    EXPECT_EQ(subMod(9, 9, q), 0u);
    EXPECT_EQ(negMod(0, q), 0u);
    EXPECT_EQ(negMod(5, q), 12u);
}

TEST(ModArith, MulMatchesWideProduct)
{
    Rng rng(1);
    const u64 q = (1ULL << 58) - 27; // arbitrary large odd value
    for (int i = 0; i < 1000; ++i) {
        u64 a = rng.uniform(q);
        u64 b = rng.uniform(q);
        u64 expect = static_cast<u64>((static_cast<u128>(a) * b) % q);
        EXPECT_EQ(mulMod(a, b, q), expect);
    }
}

TEST(ModArith, PowMod)
{
    EXPECT_EQ(powMod(2, 10, 1000000007ULL), 1024u);
    EXPECT_EQ(powMod(5, 0, 97), 1u);
    EXPECT_EQ(powMod(0, 5, 97), 0u);
    // Fermat: a^(q-1) = 1 mod prime q.
    const u64 q = 998244353;
    for (u64 a : {2ULL, 3ULL, 12345ULL})
        EXPECT_EQ(powMod(a, q - 1, q), 1u);
}

TEST(ModArith, InvMod)
{
    const u64 q = 998244353;
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        u64 a = 1 + rng.uniform(q - 1);
        u64 inv = invMod(a, q);
        EXPECT_EQ(mulMod(a, inv, q), 1u);
    }
}

TEST(ModArith, CenteredRepresentative)
{
    const u64 q = 11;
    EXPECT_EQ(centered(0, q), 0);
    EXPECT_EQ(centered(5, q), 5);
    EXPECT_EQ(centered(6, q), -5);
    EXPECT_EQ(centered(10, q), -1);
}

TEST(ModArith, ReduceSigned)
{
    const u64 q = 13;
    EXPECT_EQ(reduceSigned(-1, q), 12u);
    EXPECT_EQ(reduceSigned(13, q), 0u);
    EXPECT_EQ(reduceSigned(-27, q), 12u);
}

TEST(Barrett, MatchesDivision)
{
    Rng rng(3);
    for (u64 q : {3ULL, 17ULL, 998244353ULL, (1ULL << 54) - 33ULL,
                  (1ULL << 58) + 1ULL}) {
        if (q >= (1ULL << 59))
            continue;
        Barrett br(q);
        for (int i = 0; i < 500; ++i) {
            u64 a = rng.uniform(q);
            u64 b = rng.uniform(q);
            EXPECT_EQ(br.mul(a, b), mulMod(a, b, q))
                << "q=" << q << " a=" << a << " b=" << b;
        }
        // Edge: largest representable product.
        EXPECT_EQ(br.mul(q - 1, q - 1), mulMod(q - 1, q - 1, q));
        EXPECT_EQ(br.mul(0, q - 1), 0u);
    }
}

TEST(Montgomery, RoundTrip)
{
    Rng rng(4);
    const u64 q = genNttPrimes(1, 54, 1 << 10)[0];
    Montgomery mont(q);
    for (int i = 0; i < 500; ++i) {
        u64 x = rng.uniform(q);
        EXPECT_EQ(mont.fromMont(mont.toMont(x)), x);
    }
    EXPECT_EQ(mont.toMont(1), mont.one());
}

TEST(Montgomery, MulMatchesPlain)
{
    Rng rng(5);
    const u64 q = genNttPrimes(1, 50, 1 << 10)[0];
    Montgomery mont(q);
    for (int i = 0; i < 500; ++i) {
        u64 a = rng.uniform(q);
        u64 b = rng.uniform(q);
        u64 got = mont.fromMont(mont.mul(mont.toMont(a), mont.toMont(b)));
        EXPECT_EQ(got, mulMod(a, b, q));
    }
}

TEST(Montgomery, DoubleMontLiftsNmToSm)
{
    // Key identity behind Eq. 5: MontMult(NM value, DM constant) = SM
    // representation of the product.
    Rng rng(6);
    const u64 q = genNttPrimes(1, 48, 1 << 10)[0];
    Montgomery mont(q);
    for (int i = 0; i < 500; ++i) {
        u64 x_nm = rng.uniform(q);
        u64 c = rng.uniform(q);
        u64 got = mont.mul(x_nm, mont.toDoubleMont(c));
        EXPECT_EQ(got, mont.toMont(mulMod(x_nm, c, q)));
    }
}

TEST(Primes, MillerRabinKnownValues)
{
    EXPECT_FALSE(isPrime(0));
    EXPECT_FALSE(isPrime(1));
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(3));
    EXPECT_FALSE(isPrime(4));
    EXPECT_TRUE(isPrime(998244353));
    EXPECT_FALSE(isPrime(998244353ULL * 3));
    EXPECT_TRUE(isPrime((1ULL << 61) - 1)); // Mersenne prime
    EXPECT_FALSE(isPrime((1ULL << 59) - 1));
}

TEST(Primes, NttPrimesAreNttFriendly)
{
    const size_t n = 1 << 12;
    auto primes = genNttPrimes(5, 54, n);
    ASSERT_EQ(primes.size(), 5u);
    for (u64 q : primes) {
        EXPECT_TRUE(isPrime(q));
        EXPECT_EQ((q - 1) % (2 * n), 0u);
        EXPECT_LT(q, 1ULL << 54);
        EXPECT_GT(q, 1ULL << 53);
    }
    // Distinctness.
    for (size_t i = 0; i < primes.size(); ++i)
        for (size_t j = i + 1; j < primes.size(); ++j)
            EXPECT_NE(primes[i], primes[j]);
}

TEST(Primes, ExclusionRespected)
{
    const size_t n = 1 << 10;
    auto first = genNttPrimes(2, 40, n);
    auto second = genNttPrimes(2, 40, n, first);
    for (u64 q : second)
        for (u64 e : first)
            EXPECT_NE(q, e);
}

TEST(Primes, PrimitiveRootHasExactOrder)
{
    const size_t n = 1 << 10;
    const u64 q = genNttPrimes(1, 40, n)[0];
    const u64 order = 2 * n;
    u64 root = findPrimitiveRoot(order, q);
    EXPECT_EQ(powMod(root, order, q), 1u);
    EXPECT_EQ(powMod(root, order / 2, q), q - 1);
}

} // namespace
} // namespace effact
