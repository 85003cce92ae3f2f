/**
 * @file
 * RNS basis / polynomial / base-conversion tests, including the Eq. 5
 * merged double-Montgomery BConv equivalence against the scalar oracle
 * in tests/support/reference_bconv.h.
 */
#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/automorphism.h"
#include "math/kernels.h"
#include "math/primes.h"
#include "reference_bconv.h"
#include "reference_ntt.h"
#include "rns/bconv.h"
#include "rns/poly.h"

namespace effact {
namespace {

std::shared_ptr<RnsBasis>
makeBasis(size_t n, size_t limbs, unsigned bits,
          const std::vector<u64> &exclude = {})
{
    return std::make_shared<RnsBasis>(n,
                                      genNttPrimes(limbs, bits, n, exclude));
}

TEST(RnsBasis, CrtRoundTripSmallValues)
{
    auto basis = makeBasis(64, 3, 40);
    Rng rng(31);
    for (int iter = 0; iter < 100; ++iter) {
        u64 x = rng.uniform(1ULL << 50);
        std::vector<u64> residues;
        for (size_t j = 0; j < basis->size(); ++j)
            residues.push_back(x % basis->prime(j));
        BigInt rec = basis->crtReconstruct(residues);
        EXPECT_EQ(rec.compare(BigInt(x)), 0);
    }
}

TEST(RnsBasis, CrtCenteredNegative)
{
    auto basis = makeBasis(64, 3, 40);
    // Residues of Q - 5 should reconstruct centered as -5.
    std::vector<u64> residues;
    for (size_t j = 0; j < basis->size(); ++j)
        residues.push_back(basis->prime(j) - 5);
    EXPECT_DOUBLE_EQ(basis->crtCenteredDouble(residues), -5.0);
}

TEST(RnsBasis, PrefixSharesPrimes)
{
    auto basis = makeBasis(64, 4, 40);
    auto sub = basis->prefix(2);
    EXPECT_EQ(sub->size(), 2u);
    EXPECT_EQ(sub->prime(0), basis->prime(0));
    EXPECT_EQ(sub->prime(1), basis->prime(1));
}

TEST(RnsBasis, ConcatOrdersPrimes)
{
    auto q_basis = makeBasis(64, 2, 40);
    auto p_basis = makeBasis(64, 2, 40, q_basis->primes());
    auto joined = q_basis->concat(*p_basis);
    EXPECT_EQ(joined->size(), 4u);
    EXPECT_EQ(joined->prime(2), p_basis->prime(0));
}

TEST(RnsPoly, AddSubNegRoundTrip)
{
    auto basis = makeBasis(128, 3, 45);
    Rng rng(32);
    RnsPoly a(basis, PolyFormat::Coeff), b(basis, PolyFormat::Coeff);
    a.sampleUniform(rng);
    b.sampleUniform(rng);
    RnsPoly c = a;
    c.addInPlace(b);
    c.subInPlace(b);
    for (size_t j = 0; j < basis->size(); ++j)
        EXPECT_EQ(c.limb(j), a.limb(j));

    RnsPoly d = a;
    d.negInPlace();
    d.addInPlace(a);
    EXPECT_TRUE(d.isZero());
}

TEST(RnsPoly, SignedEmbeddingIsConsistentAcrossLimbs)
{
    auto basis = makeBasis(64, 3, 40);
    std::vector<i64> coeffs(64, 0);
    coeffs[0] = -7;
    coeffs[5] = 123;
    RnsPoly p(basis, PolyFormat::Coeff);
    p.setFromSigned(coeffs);
    for (size_t j = 0; j < basis->size(); ++j) {
        EXPECT_EQ(p.limb(j)[0], basis->prime(j) - 7);
        EXPECT_EQ(p.limb(j)[5], 123u);
    }
}

TEST(RnsPoly, EvalMulMatchesNegacyclicReference)
{
    const size_t n = 64;
    auto basis = makeBasis(n, 2, 40);
    Rng rng(33);
    RnsPoly a(basis, PolyFormat::Coeff), b(basis, PolyFormat::Coeff);
    a.sampleUniform(rng);
    b.sampleUniform(rng);
    auto ref0 = negacyclicMulSchoolbook(a.limb(0).data(), b.limb(0).data(),
                                        n, basis->prime(0));
    RnsPoly fa = a, fb = b;
    fa.toEval();
    fb.toEval();
    fa.mulEvalInPlace(fb);
    fa.toCoeff();
    EXPECT_TRUE(std::equal(fa.limb(0).begin(), fa.limb(0).end(),
                           ref0.begin(), ref0.end()));
}

TEST(RnsPoly, AutomorphCommutesWithNtt)
{
    const size_t n = 128;
    auto basis = makeBasis(n, 2, 40);
    Rng rng(34);
    RnsPoly a(basis, PolyFormat::Coeff);
    a.sampleUniform(rng);
    const u64 t = galoisElt(4, n);

    RnsPoly coeff_path = a.automorph(t);
    coeff_path.toEval();

    RnsPoly eval_path = a;
    eval_path.toEval();
    eval_path = eval_path.automorph(t);

    for (size_t j = 0; j < basis->size(); ++j)
        EXPECT_EQ(coeff_path.limb(j), eval_path.limb(j));
}

TEST(BConv, ExactForSmallCenteredValues)
{
    // The float-corrected converter is exact on centered values.
    const size_t n = 32;
    auto from = makeBasis(n, 3, 40);
    auto to = makeBasis(n, 2, 40, from->primes());
    BaseConverter bc(from, to);

    std::vector<i64> coeffs(n, 0);
    coeffs[0] = 42;
    coeffs[1] = -1000;
    coeffs[n - 1] = 77777;
    RnsPoly a(from, PolyFormat::Coeff);
    a.setFromSigned(coeffs);

    RnsPoly out = bc.convertExact(a);
    for (size_t p = 0; p < to->size(); ++p) {
        const u64 q = to->prime(p);
        EXPECT_EQ(out.limb(p)[0], 42u);
        EXPECT_EQ(out.limb(p)[1], reduceSigned(-1000, q));
        EXPECT_EQ(out.limb(p)[n - 1], 77777u);
    }
}

TEST(BConv, ExactMatchesCenteredCrtOnUniformInputs)
{
    // Uniform residues span every overflow multiple e in [0, l]; the
    // exact converter must land on the centered CRT value for each.
    const size_t n = 256;
    auto from = makeBasis(n, 4, 50);
    auto to = makeBasis(n, 3, 45, from->primes());
    BaseConverter bc(from, to);

    Rng rng(36);
    RnsPoly a(from, PolyFormat::Coeff);
    a.sampleUniform(rng);
    RnsPoly out = bc.convertExact(a);

    const BigInt q = from->product();
    BigInt half = q;
    half.shiftRight1();
    for (size_t i = 0; i < n; ++i) {
        std::vector<u64> residues;
        for (size_t j = 0; j < from->size(); ++j)
            residues.push_back(a.limb(j)[i]);
        const BigInt x = from->crtReconstruct(residues);
        const bool negative = x.compare(half) > 0;
        BigInt mag = q;
        if (negative)
            mag.sub(x);
        else
            mag = x;
        for (size_t p = 0; p < to->size(); ++p) {
            const u64 pr = to->prime(p);
            const u64 m = mag.modU64(pr);
            EXPECT_EQ(out.limb(p)[i], negative ? negMod(m, pr) : m)
                << "coeff " << i << " limb " << p;
        }
    }
}

TEST(BConv, ErrorIsSmallMultipleOfQ)
{
    // For uniform inputs the HPS fast conversion may add e*Q with
    // 0 <= e < l; verify the residual is exactly such a multiple.
    const size_t n = 16;
    auto from = makeBasis(n, 3, 40);
    auto to = makeBasis(n, 1, 40, from->primes());
    BaseConverter bc(from, to);

    Rng rng(35);
    RnsPoly a(from, PolyFormat::Coeff);
    a.sampleUniform(rng);
    RnsPoly out = bc.convert(a);

    const u64 p = to->prime(0);
    const u64 q_mod_p = from->product().modU64(p);
    for (size_t i = 0; i < n; ++i) {
        std::vector<u64> residues;
        for (size_t j = 0; j < from->size(); ++j)
            residues.push_back(a.limb(j)[i]);
        u64 x_mod_p = from->crtReconstruct(residues).modU64(p);
        // out = x + e*Q (mod p) for some 0 <= e < l.
        bool ok = false;
        u64 cand = x_mod_p;
        for (size_t e = 0; e < from->size() && !ok; ++e) {
            ok = (cand == out.limb(0)[i]);
            cand = addMod(cand, q_mod_p, p);
        }
        EXPECT_TRUE(ok) << "coefficient " << i;
    }
}

TEST(BConv, MontgomeryMergedMatchesPlain)
{
    // Eq. 5: SM input x NM const -> NM, then x DM const -> SM, must equal
    // the plain conversion lifted to SM.
    const size_t n = 32;
    auto from = makeBasis(n, 3, 40);
    auto to = makeBasis(n, 2, 40, from->primes());
    BaseConverter bc(from, to);

    Rng rng(36);
    RnsPoly a(from, PolyFormat::Coeff);
    a.sampleUniform(rng);

    RnsPoly plain = bc.convert(a);

    // Lift the input into SM form limb-by-limb.
    RnsPoly a_sm = a;
    for (size_t j = 0; j < from->size(); ++j) {
        const Montgomery mont(from->prime(j));
        for (auto &c : a_sm.limb(j))
            c = mont.toMont(c);
    }
    RnsPoly merged_sm =
        convertMontgomeryReference(a_sm, to, /*scale_n_inv=*/false);
    for (size_t p = 0; p < to->size(); ++p) {
        const Montgomery mont(to->prime(p));
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(mont.fromMont(merged_sm.limb(p)[i]),
                      plain.limb(p)[i]);
    }
}

TEST(BConv, MergedNInvFoldsInttPostScale)
{
    // Feeding an unscaled iNTT output through the merged converter with
    // scale_n_inv=true equals scaling then converting (Sec. IV-D5).
    const size_t n = 64;
    auto from = makeBasis(n, 2, 40);
    auto to = makeBasis(n, 1, 40, from->primes());
    BaseConverter bc(from, to);

    Rng rng(37);
    RnsPoly a(from, PolyFormat::Eval);
    a.sampleUniform(rng);

    // Reference: full iNTT (with 1/N), then plain conversion.
    RnsPoly ref = a;
    ref.toCoeff();
    RnsPoly expect = bc.convert(ref);

    // Merged: SM domain, the iNTT core without its 1/N post-scale (the
    // kernel table's nttInverse), then fold 1/N into BConv.
    const kernels::KernelTable &scalar = kernels::scalarKernels();
    RnsPoly raw_coeff(from, PolyFormat::Coeff);
    for (size_t j = 0; j < from->size(); ++j) {
        const Montgomery mont(from->prime(j));
        auto &limb = raw_coeff.limb(j);
        limb = a.limb(j);
        for (auto &c : limb)
            c = mont.toMont(c);
        scalar.nttInverse(limb.data(), n, from->limb(j).ntt.kernelTables());
    }

    RnsPoly got_sm =
        convertMontgomeryReference(raw_coeff, to, /*scale_n_inv=*/true);
    for (size_t p = 0; p < to->size(); ++p) {
        const Montgomery mont(to->prime(p));
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(mont.fromMont(got_sm.limb(p)[i]), expect.limb(p)[i]);
    }
}

} // namespace
} // namespace effact
