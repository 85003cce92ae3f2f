/**
 * @file
 * Exactness pin for the SIMD kernel tiers (math/kernels.h): every tier
 * this host can run must produce byte-identical `u64` outputs to the
 * scalar oracle on every kernel, every tail length and a seeded fuzz
 * sweep of NTT-friendly moduli. This is the contract that lets the
 * `EFFACT_SIMD` knob move wall clock without ever moving a
 * fingerprint, a cycle count or a `CompileCache` key.
 *
 * On a host whose best tier is scalar the tier-comparison loops are
 * empty and the suite degenerates to plumbing + alignment checks;
 * HostTierReport records which tiers actually ran so CI logs show what
 * was exercised.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "math/kernels.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "rns/bconv.h"
#include "rns/poly.h"

namespace effact {
namespace {

/** The highest `SimdTier` enumerator, whether or not this host has it. */
constexpr SimdTier kTopTier = SimdTier::Avx512;

/** Tiers above scalar that this build + CPU can actually run. */
std::vector<SimdTier>
vectorTiers()
{
    std::vector<SimdTier> tiers;
    for (int t = 1; t <= static_cast<int>(maxSupportedSimdTier()); ++t)
        tiers.push_back(static_cast<SimdTier>(t));
    return tiers;
}

/**
 * Tail-heavy length set: everything around the 4- and 8-lane
 * boundaries, with every residue mod 8 above 8.
 */
const size_t kLengths[] = {0,  1,  2,  3,  4,  5,  6,  7,   8,   9,
                           10, 11, 12, 13, 14, 15, 16, 17,  18,  22,
                           23, 24, 25, 31, 32, 33, 63, 64,  100, 255,
                           1000, 1024, 4097};

const unsigned kBitWidths[] = {17, 30, 40, 50, 58};

std::vector<u64>
randomResidues(Rng &rng, size_t n, u64 q)
{
    std::vector<u64> v(n);
    for (auto &c : v)
        c = rng.uniform(q);
    return v;
}

TEST(SimdTierPlumbing, HostTierReport)
{
    const SimdTier best = maxSupportedSimdTier();
    // Not an assertion — the suite must pass on any host — but the log
    // line tells CI readers which tiers the equivalence loops covered.
    std::printf("[host] max supported tier: %s, active: %s\n",
                simdTierName(best), simdTierName(activeSimdTier()));
    EXPECT_GE(static_cast<int>(best), static_cast<int>(SimdTier::Scalar));
    EXPECT_STREQ(simdTierName(SimdTier::Scalar), "scalar");
    EXPECT_STREQ(simdTierName(SimdTier::Avx2), "avx2");
    EXPECT_STREQ(simdTierName(SimdTier::Avx512), "avx512");
}

TEST(SimdTierPlumbing, SetTierClampsToHostMaximum)
{
    const SimdTier prev = activeSimdTier();
    const SimdTier best = maxSupportedSimdTier();
    // Requesting more than the host supports installs the host maximum,
    // never an unusable tier.
    const SimdTier got = setSimdTier(kTopTier);
    EXPECT_LE(static_cast<int>(got), static_cast<int>(best));
    EXPECT_EQ(got, activeSimdTier());
    EXPECT_EQ(setSimdTier(SimdTier::Scalar), SimdTier::Scalar);
    EXPECT_EQ(activeSimdTier(), SimdTier::Scalar);
    setSimdTier(prev);
}

TEST(SimdTierPlumbing, EveryTierValueResolvesToUsableTable)
{
    // forTier is total: even a tier the build lacks must come back as a
    // usable table (the highest available lower tier).
    for (int t = 0; t <= static_cast<int>(kTopTier); ++t) {
        const kernels::KernelTable &tab = kernels::forTier(SimdTier(t));
        EXPECT_NE(tab.nttForward, nullptr);
        EXPECT_NE(tab.addModV, nullptr);
    }
}

/** The entries of `tab`, in declaration order, as untyped addresses. */
std::vector<const void *>
entries(const kernels::KernelTable &tab)
{
    static_assert(sizeof(kernels::KernelTable) == 8 * sizeof(void *),
                  "list every KernelTable entry below");
    return {reinterpret_cast<const void *>(tab.addModV),
            reinterpret_cast<const void *>(tab.subModV),
            reinterpret_cast<const void *>(tab.negModV),
            reinterpret_cast<const void *>(tab.mulModV),
            reinterpret_cast<const void *>(tab.mulConstV),
            reinterpret_cast<const void *>(tab.macConstV),
            reinterpret_cast<const void *>(tab.nttForward),
            reinterpret_cast<const void *>(tab.nttInverse)};
}

TEST(SimdTierPlumbing, EachTierTableIsItsOwnInstantiation)
{
    // The vector tiers share one kernel body, so their outputs agree by
    // design and no equivalence test would notice a tier handing out
    // another tier's table. Every entry must be a distinct function.
    std::vector<SimdTier> tiers = vectorTiers();
    if (tiers.empty())
        GTEST_SKIP() << "host has no vector tier";
    tiers.insert(tiers.begin(), SimdTier::Scalar);
    for (size_t i = 0; i < tiers.size(); ++i) {
        const auto mine = entries(kernels::forTier(tiers[i]));
        for (size_t j = i + 1; j < tiers.size(); ++j) {
            const auto theirs = entries(kernels::forTier(tiers[j]));
            for (size_t e = 0; e < mine.size(); ++e)
                EXPECT_NE(mine[e], theirs[e])
                    << "entry " << e << " of " << simdTierName(tiers[i])
                    << " and " << simdTierName(tiers[j]);
        }
    }
}

TEST(SimdAlignment, LimbStorageIs64ByteAligned)
{
    auto basis =
        std::make_shared<RnsBasis>(size_t(64), genNttPrimes(3, 40, 64));
    RnsPoly p(basis, PolyFormat::Coeff);
    for (size_t j = 0; j < p.limbCount(); ++j)
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p.limb(j).data()) % 64, 0u)
            << "limb " << j;
    AlignedU64Vec v(17);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % 64, 0u);
}

// --- Elementwise kernels: scalar vs every available tier ------------------

TEST(SimdKernelEquivalence, ElementwiseAllTailLengths)
{
    const kernels::KernelTable &oracle = kernels::scalarKernels();
    Rng rng(7001);
    for (unsigned bits : kBitWidths) {
        const u64 q = genNttPrimes(1, bits, 64)[0];
        const Barrett br(q);
        for (size_t n : kLengths) {
            const std::vector<u64> a = randomResidues(rng, n, q);
            const std::vector<u64> b = randomResidues(rng, n, q);
            const std::vector<u64> acc0 = randomResidues(rng, n, q);
            const u64 c = rng.uniform(q);
            for (SimdTier tier : vectorTiers()) {
                const kernels::KernelTable &tab = kernels::forTier(tier);
                std::vector<u64> want(n), got(n);

                oracle.addModV(want.data(), a.data(), b.data(), n, q);
                tab.addModV(got.data(), a.data(), b.data(), n, q);
                EXPECT_EQ(want, got) << "addModV n=" << n << " q=" << q;

                oracle.subModV(want.data(), a.data(), b.data(), n, q);
                tab.subModV(got.data(), a.data(), b.data(), n, q);
                EXPECT_EQ(want, got) << "subModV n=" << n << " q=" << q;

                oracle.negModV(want.data(), a.data(), n, q);
                tab.negModV(got.data(), a.data(), n, q);
                EXPECT_EQ(want, got) << "negModV n=" << n << " q=" << q;

                oracle.mulModV(want.data(), a.data(), b.data(), n, br);
                tab.mulModV(got.data(), a.data(), b.data(), n, br);
                EXPECT_EQ(want, got) << "mulModV n=" << n << " q=" << q;

                oracle.mulConstV(want.data(), a.data(), n, c, br);
                tab.mulConstV(got.data(), a.data(), n, c, br);
                EXPECT_EQ(want, got) << "mulConstV n=" << n << " q=" << q;

                want = acc0;
                got = acc0;
                oracle.macConstV(want.data(), a.data(), n, c, br);
                tab.macConstV(got.data(), a.data(), n, c, br);
                EXPECT_EQ(want, got) << "macConstV n=" << n << " q=" << q;
            }
        }
    }
}

/** Correction subtracts Barrett::reduce makes on a * b (0, 1 or 2). */
u64
barrettCorrections(const Barrett &br, u64 a, u64 b)
{
    const unsigned k = br.kBits();
    const u128 x = static_cast<u128>(a) * b;
    const u64 q3 = static_cast<u64>(((x >> (k - 1)) * br.mu()) >> (k + 1));
    return static_cast<u64>(x - static_cast<u128>(q3) * br.modulus()) /
           br.modulus();
}

TEST(SimdKernelEquivalence, MulModAcceptsAnyReducedOperands)
{
    // Stress the Barrett replay at the extremes: residues packed near q
    // and near 0. Under the widest q, a prime just below 2^58, 2^116 / q
    // is within 1e-6 of an integer and no product needs Barrett's second
    // correction. The 30-bit prime 1073685121 has 2^60 / q 0.995 above
    // an integer, so products near q^2 take both corrections.
    struct Modulus
    {
        u64 q;
        u64 worstCorrections; ///< over the operands below
    };
    for (const Modulus m : {Modulus{genNttPrimes(1, 58, 64)[0], 1},
                            Modulus{1073685121, 2}}) {
        const u64 q = m.q;
        const Barrett br(q);
        const kernels::KernelTable &oracle = kernels::scalarKernels();
        const size_t n = 64;
        std::vector<u64> a(n), b(n);
        u64 corrections = 0;
        for (size_t i = 0; i < n; ++i) {
            a[i] = i % 2 == 0 ? q - 1 - i / 2 : i / 2;
            b[i] = i % 3 == 0 ? q - 1 : (i % 3 == 1 ? 1 : q / 2);
            corrections =
                std::max(corrections, barrettCorrections(br, a[i], b[i]));
        }
        EXPECT_EQ(corrections, m.worstCorrections) << "q=" << q;
        for (SimdTier tier : vectorTiers()) {
            std::vector<u64> want(n), got(n);
            oracle.mulModV(want.data(), a.data(), b.data(), n, br);
            kernels::forTier(tier).mulModV(got.data(), a.data(), b.data(),
                                           n, br);
            EXPECT_EQ(want, got) << simdTierName(tier) << " q=" << q;
        }
    }
}

// --- NTT: scalar vs every available tier, every size ----------------------

TEST(SimdKernelEquivalence, NttForwardInverseAllSizes)
{
    const kernels::KernelTable &oracle = kernels::scalarKernels();
    Rng rng(7002);
    for (size_t n = 2; n <= 4096; n <<= 1) {
        for (unsigned bits : {30u, 50u, 54u, 58u}) {
            const u64 q = genNttPrimes(1, bits, n)[0];
            const Ntt plan(n, q);
            const kernels::NttTables tables = plan.kernelTables();
            const std::vector<u64> input = randomResidues(rng, n, q);
            for (SimdTier tier : vectorTiers()) {
                const kernels::KernelTable &tab = kernels::forTier(tier);
                std::vector<u64> want = input, got = input;
                oracle.nttForward(want.data(), n, tables);
                tab.nttForward(got.data(), n, tables);
                EXPECT_EQ(want, got) << "forward n=" << n << " q=" << q
                                     << " tier=" << simdTierName(tier);
                oracle.nttInverse(want.data(), n, tables);
                tab.nttInverse(got.data(), n, tables);
                EXPECT_EQ(want, got) << "inverse n=" << n << " q=" << q
                                     << " tier=" << simdTierName(tier);
            }
        }
    }
}

TEST(SimdKernelEquivalence, NttRoundTripAtEveryTier)
{
    Rng rng(7003);
    const size_t n = 1024;
    const u64 q = genNttPrimes(1, 54, n)[0];
    const Ntt plan(n, q);
    const std::vector<u64> input = randomResidues(rng, n, q);
    const SimdTier prev = activeSimdTier();
    for (int t = 0; t <= static_cast<int>(maxSupportedSimdTier()); ++t) {
        setSimdTier(static_cast<SimdTier>(t));
        std::vector<u64> a = input;
        plan.forward(a.data());
        plan.backward(a.data());
        EXPECT_EQ(a, input) << simdTierName(static_cast<SimdTier>(t));
    }
    setSimdTier(prev);
}

// --- End-to-end: RnsPoly / BaseConverter under tier switch ----------------

/** Runs a mixed RnsPoly + BConv scene under `tier`, returns all limbs. */
std::vector<std::vector<u64>>
runPolyScene(SimdTier tier, u64 seed)
{
    const SimdTier prev = activeSimdTier();
    setSimdTier(tier);
    const size_t n = 256;
    auto from = std::make_shared<RnsBasis>(n, genNttPrimes(3, 40, n));
    auto to = std::make_shared<RnsBasis>(
        n, genNttPrimes(3, 40, n, from->primes()));
    BaseConverter bc(from, to);

    Rng rng(seed);
    RnsPoly a(from, PolyFormat::Coeff), b(from, PolyFormat::Coeff);
    a.sampleUniform(rng);
    b.sampleUniform(rng);

    RnsPoly prod = a;
    prod.toEval();
    RnsPoly fb = b;
    fb.toEval();
    prod.mulEvalInPlace(fb);
    prod.toCoeff();
    prod.addInPlace(a);
    prod.subInPlace(b);
    prod.negInPlace();
    prod.mulScalarU64(12345);

    RnsPoly conv = bc.convert(prod);
    RnsPoly exact = bc.convertExact(prod);

    std::vector<std::vector<u64>> limbs;
    for (const RnsPoly *p : {&prod, &conv, &exact})
        for (size_t j = 0; j < p->limbCount(); ++j)
            limbs.emplace_back(p->limb(j).begin(), p->limb(j).end());
    setSimdTier(prev);
    return limbs;
}

TEST(SimdKernelEquivalence, PolyAndBconvSceneMatchesScalar)
{
    const auto want = runPolyScene(SimdTier::Scalar, 99);
    for (SimdTier tier : vectorTiers())
        EXPECT_EQ(want, runPolyScene(tier, 99)) << simdTierName(tier);
}

// --- Seeded fuzz over genNttPrimes moduli ---------------------------------

TEST(SimdKernelEquivalence, FuzzRandomLengthsAndModuli)
{
    const kernels::KernelTable &oracle = kernels::scalarKernels();
    const std::vector<SimdTier> tiers = vectorTiers();
    if (tiers.empty())
        GTEST_SKIP() << "host has no vector tier; nothing to fuzz";
    Rng rng(20250808);
    for (int round = 0; round < 200; ++round) {
        const unsigned bits = 30 + unsigned(rng.uniform(29)); // 30..58
        const size_t ntt_n = size_t(64) << rng.uniform(4);    // 64..512
        const u64 q = genNttPrimes(1, bits, ntt_n)[0];
        const Barrett br(q);
        const size_t n = 1 + size_t(rng.uniform(300));
        const std::vector<u64> a = randomResidues(rng, n, q);
        const std::vector<u64> b = randomResidues(rng, n, q);
        const u64 c = rng.uniform(q);
        const SimdTier tier = tiers[rng.uniform(tiers.size())];
        const kernels::KernelTable &tab = kernels::forTier(tier);
        std::vector<u64> want(n), got(n);
        switch (rng.uniform(4)) {
          case 0:
            oracle.mulModV(want.data(), a.data(), b.data(), n, br);
            tab.mulModV(got.data(), a.data(), b.data(), n, br);
            break;
          case 1:
            oracle.mulConstV(want.data(), a.data(), n, c, br);
            tab.mulConstV(got.data(), a.data(), n, c, br);
            break;
          case 2:
            want = b;
            got = b;
            oracle.macConstV(want.data(), a.data(), n, c, br);
            tab.macConstV(got.data(), a.data(), n, c, br);
            break;
          default: {
            const std::vector<u64> input = randomResidues(rng, ntt_n, q);
            const Ntt plan(ntt_n, q);
            want = input;
            got = input;
            oracle.nttForward(want.data(), ntt_n, plan.kernelTables());
            tab.nttForward(got.data(), ntt_n, plan.kernelTables());
            break;
          }
        }
        ASSERT_EQ(want, got) << "round " << round << " bits=" << bits
                             << " n=" << n << " q=" << q << " tier="
                             << simdTierName(tier);
    }
}

} // namespace
} // namespace effact
