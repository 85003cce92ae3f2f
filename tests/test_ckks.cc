/**
 * @file
 * End-to-end CKKS correctness: encode/decode round trips, encryption,
 * HADD/HMULT/rescale, key switching, rotation (one step and hoisted
 * batches), conjugation and multiplication by i. This is the repo's
 * stand-in for the paper's Lattigo cross-validation — every homomorphic
 * result is checked against plaintext reference computation. The
 * evaluator's evaluation-domain rescale, key switch and constant ops are
 * also pinned residue for residue to the coefficient-domain oracles of
 * tests/support/reference_ckks.h, and the context's per-level bases to
 * one object per level.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "math/automorphism.h"
#include "reference_ckks.h"

namespace effact {
namespace {

CkksParams
testParams()
{
    CkksParams p;
    p.logN = 10;
    p.levels = 6;
    p.logScale = 40;
    p.logQ0 = 54;
    p.dnum = 3;
    p.hammingWeight = 32;
    return p;
}

std::vector<cplx>
randomMessage(Rng &rng, size_t slots, double mag = 1.0)
{
    std::vector<cplx> msg(slots);
    for (auto &v : msg)
        v = cplx((rng.uniformReal() * 2 - 1) * mag,
                 (rng.uniformReal() * 2 - 1) * mag);
    return msg;
}

double
maxErr(const std::vector<cplx> &a, const std::vector<cplx> &b)
{
    double err = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        err = std::max(err, std::abs(a[i] - b[i]));
    return err;
}

/** Same format and the same residues in every limb. */
bool
samePoly(const RnsPoly &a, const RnsPoly &b)
{
    if (a.format() != b.format() || a.limbCount() != b.limbCount())
        return false;
    for (size_t j = 0; j < a.limbCount(); ++j)
        if (a.basis().prime(j) != b.basis().prime(j) || a.limb(j) != b.limb(j))
            return false;
    return true;
}

/** Same scale and the same residues in every limb of every poly. */
bool
sameResidues(const Ciphertext &a, const Ciphertext &b)
{
    if (a.scale != b.scale || a.size() != b.size())
        return false;
    for (size_t p = 0; p < a.size(); ++p)
        if (!samePoly(a.polys[p], b.polys[p]))
            return false;
    return true;
}

class CkksFixture : public ::testing::Test
{
  protected:
    CkksFixture()
        : ctx(testParams()), encoder(ctx), rng(42), keygen(ctx, rng),
          sk(keygen.genSecretKey()), relin(keygen.genRelinKey(sk)),
          galois(keygen.genGaloisKeys(sk, {1, 2, 3, -1, 4}, true)),
          enc(ctx, sk, rng), eval(ctx, encoder, &relin, &galois)
    {}

    CkksContext ctx;
    CkksEncoder encoder;
    Rng rng;
    KeyGenerator keygen;
    SecretKey sk;
    SwitchingKey relin;
    GaloisKeys galois;
    CkksEncryptor enc;
    CkksEvaluator eval;
};

TEST_F(CkksFixture, EncodeDecodeRoundTrip)
{
    for (size_t slots : {size_t(1), size_t(8), ctx.slots()}) {
        auto msg = randomMessage(rng, slots);
        Plaintext pt = encoder.encode(msg, ctx.scale(), ctx.levels());
        auto out = encoder.decode(pt, slots);
        EXPECT_LT(maxErr(msg, out), 1e-7) << "slots=" << slots;
    }
}

TEST_F(CkksFixture, EncodeIsAdditive)
{
    auto a = randomMessage(rng, 16);
    auto b = randomMessage(rng, 16);
    Plaintext pa = encoder.encode(a, ctx.scale(), 2);
    Plaintext pb = encoder.encode(b, ctx.scale(), 2);
    pa.poly.addInPlace(pb.poly);
    auto out = encoder.decode(pa, 16);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_LT(std::abs(out[i] - (a[i] + b[i])), 1e-6);
}

TEST_F(CkksFixture, EncryptDecryptRoundTrip)
{
    auto msg = randomMessage(rng, ctx.slots());
    Plaintext pt = encoder.encode(msg, ctx.scale(), ctx.levels());
    Ciphertext ct = enc.encrypt(pt);
    auto out = encoder.decode(enc.decrypt(ct), ctx.slots());
    EXPECT_LT(maxErr(msg, out), 1e-5);
}

TEST_F(CkksFixture, HomomorphicAddition)
{
    auto a = randomMessage(rng, 64);
    auto b = randomMessage(rng, 64);
    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(), 4));
    Ciphertext cb = enc.encrypt(encoder.encode(b, ctx.scale(), 4));
    Ciphertext sum = eval.add(ca, cb);
    auto out = encoder.decode(enc.decrypt(sum), 64);
    for (size_t i = 0; i < 64; ++i)
        EXPECT_LT(std::abs(out[i] - (a[i] + b[i])), 1e-5);
}

TEST_F(CkksFixture, HomomorphicSubtractionAndNegate)
{
    auto a = randomMessage(rng, 32);
    auto b = randomMessage(rng, 32);
    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    Ciphertext cb = enc.encrypt(encoder.encode(b, ctx.scale(), 3));
    auto out = encoder.decode(enc.decrypt(eval.sub(ca, cb)), 32);
    for (size_t i = 0; i < 32; ++i)
        EXPECT_LT(std::abs(out[i] - (a[i] - b[i])), 1e-5);
}

TEST_F(CkksFixture, AddPlainAndConst)
{
    auto a = randomMessage(rng, 16);
    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(), 2));
    Ciphertext shifted = eval.addConst(ca, cplx(2.5, -1.0));
    auto out = encoder.decode(enc.decrypt(shifted), 16);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_LT(std::abs(out[i] - (a[i] + cplx(2.5, -1.0))), 1e-5);
}

TEST_F(CkksFixture, MultPlainWithRescale)
{
    auto a = randomMessage(rng, 32);
    auto b = randomMessage(rng, 32);
    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    Plaintext pb = encoder.encode(b, ctx.scale(), 3);
    Ciphertext prod = eval.rescale(eval.multPlain(ca, pb));
    auto out = encoder.decode(enc.decrypt(prod), 32);
    for (size_t i = 0; i < 32; ++i)
        EXPECT_LT(std::abs(out[i] - a[i] * b[i]), 1e-4);
}

TEST_F(CkksFixture, HomomorphicMultiplication)
{
    auto a = randomMessage(rng, ctx.slots());
    auto b = randomMessage(rng, ctx.slots());
    Ciphertext ca = enc.encrypt(encoder.encode(a, ctx.scale(),
                                               ctx.levels()));
    Ciphertext cb = enc.encrypt(encoder.encode(b, ctx.scale(),
                                               ctx.levels()));
    Ciphertext prod = eval.rescale(eval.mult(ca, cb));
    auto out = encoder.decode(enc.decrypt(prod), ctx.slots());
    double err = 0;
    for (size_t i = 0; i < ctx.slots(); ++i)
        err = std::max(err, std::abs(out[i] - a[i] * b[i]));
    EXPECT_LT(err, 1e-3);
}

TEST_F(CkksFixture, MultiplicationDepthChain)
{
    // Chain x -> x^2 -> x^4 -> x^8 through three rescales.
    std::vector<cplx> a(8);
    for (size_t i = 0; i < 8; ++i)
        a[i] = cplx(0.4 + 0.05 * double(i), 0.1);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(),
                                               ctx.levels()));
    for (int d = 0; d < 3; ++d)
        ct = eval.rescale(eval.square(ct));
    auto out = encoder.decode(enc.decrypt(ct), 8);
    for (size_t i = 0; i < 8; ++i) {
        cplx expect = std::pow(a[i], 8.0);
        EXPECT_LT(std::abs(out[i] - expect), 1e-2) << "slot " << i;
    }
}

TEST_F(CkksFixture, RotationMatchesSlotShift)
{
    // A multiple of the slot count maps to Galois element 1, the
    // identity: it gets no key, and rotating by it needs none.
    const size_t slots = ctx.slots();
    const int n = static_cast<int>(slots);
    EXPECT_TRUE(keygen.genGaloisKeys(sk, {n, -n}).empty());

    auto a = randomMessage(rng, slots);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    const std::vector<int> steps = {1, 2, 3, n, -n};
    // The batch shares only the ModUp of c1: each of its results is the
    // one-step call's, bit for bit.
    const std::vector<Ciphertext> batch = eval.rotateHoisted(ct, steps);
    ASSERT_EQ(batch.size(), steps.size());
    for (size_t k = 0; k < steps.size(); ++k) {
        EXPECT_TRUE(sameResidues(batch[k], eval.rotate(ct, steps[k])))
            << "steps=" << steps[k];
        auto out = encoder.decode(enc.decrypt(batch[k]), slots);
        const size_t shift = size_t((steps[k] % n + n) % n);
        for (size_t i = 0; i < slots; ++i) {
            cplx expect = a[(i + shift) % slots];
            ASSERT_LT(std::abs(out[i] - expect), 1e-4)
                << "steps=" << steps[k] << " slot=" << i;
        }
    }
}

TEST_F(CkksFixture, NegativeRotation)
{
    const size_t slots = ctx.slots();
    auto a = randomMessage(rng, slots);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    Ciphertext rot = eval.rotate(ct, -1);
    auto out = encoder.decode(enc.decrypt(rot), slots);
    for (size_t i = 0; i < slots; ++i) {
        cplx expect = a[(i + slots - 1) % slots];
        ASSERT_LT(std::abs(out[i] - expect), 1e-4) << "slot " << i;
    }
}

TEST_F(CkksFixture, ConjugationConjugatesSlots)
{
    auto a = randomMessage(rng, 16);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    Ciphertext conj = eval.conjugate(ct);
    auto out = encoder.decode(enc.decrypt(conj), 16);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_LT(std::abs(out[i] - std::conj(a[i])), 1e-4);
}

TEST_F(CkksFixture, MultByIMultipliesSlotsByI)
{
    auto a = randomMessage(rng, ctx.slots());
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(), 3));
    Ciphertext ict = eval.multByI(ct);
    EXPECT_EQ(ict.level(), ct.level());
    EXPECT_EQ(ict.scale, ct.scale);
    auto out = encoder.decode(enc.decrypt(ict), ctx.slots());
    for (size_t i = 0; i < ctx.slots(); ++i)
        EXPECT_LT(std::abs(out[i] - cplx(0, 1) * a[i]), 1e-4)
            << "slot " << i;

    // i^4 = 1 exactly: X^(N/2) to the fourth is X^(2N) = 1.
    Ciphertext back = ict;
    for (int k = 0; k < 3; ++k)
        back = eval.multByI(back);
    EXPECT_TRUE(sameResidues(back, ct));
}

TEST_F(CkksFixture, RescaleTracksScale)
{
    auto a = randomMessage(rng, 8);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(), 4));
    Ciphertext prod = eval.mult(ct, ct);
    EXPECT_NEAR(prod.scale, ctx.scale() * ctx.scale(),
                1e-3 * prod.scale);
    Ciphertext scaled = eval.rescale(prod);
    EXPECT_EQ(scaled.level(), 3u);
    EXPECT_NEAR(scaled.scale, ctx.scale(), 1e-3 * ctx.scale());
}

TEST_F(CkksFixture, LevelToPreservesMessage)
{
    auto a = randomMessage(rng, 8);
    Ciphertext ct = enc.encrypt(encoder.encode(a, ctx.scale(),
                                               ctx.levels()));
    Ciphertext low = eval.levelTo(ct, 2);
    EXPECT_EQ(low.level(), 2u);
    auto out = encoder.decode(enc.decrypt(low), 8);
    EXPECT_LT(maxErr(a, out), 1e-4);
}

TEST_F(CkksFixture, DifferentDnumValuesAgree)
{
    // The dnum decomposition must not change results, only noise.
    for (size_t dnum : {1u, 2u, 6u}) {
        CkksParams p = testParams();
        p.dnum = dnum;
        CkksContext ctx2(p);
        CkksEncoder enc2(ctx2);
        Rng rng2(7);
        KeyGenerator kg2(ctx2, rng2);
        SecretKey sk2 = kg2.genSecretKey();
        SwitchingKey rk2 = kg2.genRelinKey(sk2);
        CkksEncryptor cenc2(ctx2, sk2, rng2);
        CkksEvaluator ev2(ctx2, enc2, &rk2);

        auto a = randomMessage(rng2, 16);
        auto b = randomMessage(rng2, 16);
        Ciphertext ca = cenc2.encrypt(enc2.encode(a, ctx2.scale(), 4));
        Ciphertext cb = cenc2.encrypt(enc2.encode(b, ctx2.scale(), 4));
        auto out = enc2.decode(cenc2.decrypt(ev2.rescale(ev2.mult(ca,
                                                                  cb))),
                               16);
        for (size_t i = 0; i < 16; ++i)
            EXPECT_LT(std::abs(out[i] - a[i] * b[i]), 1e-3)
                << "dnum=" << dnum;
    }
}

// --- Bit-exact oracles -------------------------------------------------

TEST_F(CkksFixture, RescaleMatchesCoefficientDomainReference)
{
    for (size_t level = 2; level <= ctx.levels(); ++level) {
        Ciphertext ct = enc.encrypt(
            encoder.encode(randomMessage(rng, ctx.slots()), ctx.scale(),
                           level));
        EXPECT_TRUE(sameResidues(eval.rescale(ct), referenceRescale(ctx, ct)))
            << "level=" << level;
        Ciphertext prod = eval.mult(ct, ct);
        EXPECT_TRUE(
            sameResidues(eval.rescale(prod), referenceRescale(ctx, prod)))
            << "product, level=" << level;
    }
}

TEST(CkksOracle, RescaleMatchesReferenceWhenQ0IsNarrowest)
{
    // With q_0 narrower than the scale primes, the dropped limb's
    // residues are mostly above q_0, so rescale's reduction into q_j
    // does real work (on the fixture's chain it almost never does).
    CkksParams p = testParams();
    p.logQ0 = 30;
    p.logScale = 50;
    CkksContext ctx(p);
    CkksEncoder encoder(ctx);
    CkksEvaluator eval(ctx, encoder);
    Rng rng(5);
    for (size_t level = 2; level <= ctx.levels(); ++level) {
        Ciphertext ct;
        ct.scale = ctx.scale();
        for (int i = 0; i < 2; ++i) {
            ct.polys.emplace_back(ctx.qBasisAt(level), PolyFormat::Eval);
            ct.polys.back().sampleUniform(rng);
        }
        EXPECT_TRUE(sameResidues(eval.rescale(ct), referenceRescale(ctx, ct)))
            << "level=" << level;
    }
}

TEST(CkksOracle, KeySwitchPathsMatchReferenceForEveryDnum)
{
    // keySwitch, mult, rotate, rotateHoisted and conjugate share ModUp,
    // the key inner product and ModDown; each must equal the
    // coefficient-domain oracle residue for residue at every level.
    const std::vector<int> steps = {1, 3, -2, 0};
    for (size_t dnum : {1u, 2u, 3u, 6u}) {
        CkksParams p = testParams();
        p.dnum = dnum;
        CkksContext ctx(p);
        CkksEncoder encoder(ctx);
        Rng rng(100 + dnum);
        KeyGenerator keygen(ctx, rng);
        SecretKey sk = keygen.genSecretKey();
        SwitchingKey relin = keygen.genRelinKey(sk);
        GaloisKeys galois = keygen.genGaloisKeys(sk, steps, true);
        CkksEncryptor enc(ctx, sk, rng);
        CkksEvaluator eval(ctx, encoder, &relin, &galois);
        std::vector<u64> elts;
        for (int step : steps)
            elts.push_back(galoisElt(step, ctx.degree()));
        elts.push_back(galoisEltConjugate(ctx.degree()));

        for (size_t level = 1; level <= ctx.levels(); ++level) {
            SCOPED_TRACE("dnum=" + std::to_string(dnum) +
                         " level=" + std::to_string(level));
            Ciphertext a = enc.encrypt(encoder.encode(
                randomMessage(rng, ctx.slots()), ctx.scale(), level));
            Ciphertext b = enc.encrypt(encoder.encode(
                randomMessage(rng, ctx.slots()), ctx.scale(), level));

            auto [k0, k1] = eval.keySwitch(a.polys[1], relin);
            auto [r0, r1] = referenceKeySwitch(ctx, a.polys[1], relin);
            EXPECT_TRUE(samePoly(k0, r0));
            EXPECT_TRUE(samePoly(k1, r1));
            EXPECT_TRUE(
                sameResidues(eval.mult(a, b), referenceMult(ctx, a, b, relin)));

            const std::vector<Ciphertext> ref =
                referenceAutomorph(ctx, a, elts, galois);
            const std::vector<Ciphertext> batch = eval.rotateHoisted(a, steps);
            for (size_t k = 0; k < steps.size(); ++k) {
                EXPECT_TRUE(sameResidues(batch[k], ref[k]))
                    << "steps=" << steps[k];
                EXPECT_TRUE(sameResidues(eval.rotate(a, steps[k]), ref[k]))
                    << "steps=" << steps[k];
            }
            EXPECT_TRUE(sameResidues(eval.conjugate(a), ref.back()));
        }
    }
}

TEST_F(CkksFixture, ConstantsMatchEncodedPlaintextReference)
{
    // Real constants take the scalar path, complex ones the encoded
    // plaintext; both must equal encode-then-multPlain/addPlain. Scale
    // 2 rounds the quarter values half away from zero.
    const std::vector<cplx> values = {
        cplx(0.75, 0),  cplx(3.0, 0),    cplx(-1.0, 0),   cplx(-0.3, 0),
        cplx(0.0, 0),   cplx(-0.0, 0.0), cplx(0.25, 0),   cplx(-0.25, 0),
        cplx(2.5, -1.0), cplx(0.0, 0.5), cplx(-1.5, 1e-3)};
    for (size_t level : {size_t(1), size_t(3), ctx.levels()}) {
        Ciphertext ct = enc.encrypt(
            encoder.encode(randomMessage(rng, ctx.slots()), ctx.scale(),
                           level));
        for (cplx v : values) {
            SCOPED_TRACE("level=" + std::to_string(level) + " value=(" +
                         std::to_string(v.real()) + ", " +
                         std::to_string(v.imag()) + ")");
            for (double const_scale : {ctx.scale(), 2.0, 1e6})
                EXPECT_TRUE(sameResidues(
                    eval.multConst(ct, v, const_scale),
                    referenceMultConst(eval, ct, v, const_scale)));
            EXPECT_TRUE(sameResidues(eval.addConst(ct, v),
                                     referenceAddConst(eval, ct, v)));
        }
    }
}

TEST_F(CkksFixture, MultConstAddMatchesAddOfMultConst)
{
    // The fused MAC must leave exactly what add(acc, multConst(levelTo))
    // leaves, with ct at acc's level or above it.
    for (size_t ct_level : {size_t(3), ctx.levels()}) {
        Ciphertext ct = enc.encrypt(
            encoder.encode(randomMessage(rng, ctx.slots()), ctx.scale(),
                           ct_level));
        for (size_t acc_level : {size_t(1), size_t(3)}) {
            for (double v : {0.75, -0.3, 0.0, 3.0}) {
                for (double const_scale : {ctx.scale(), 2.0, 1e6}) {
                    SCOPED_TRACE("ct level " + std::to_string(ct_level) +
                                 ", acc level " + std::to_string(acc_level) +
                                 ", value " + std::to_string(v) +
                                 ", const scale " +
                                 std::to_string(const_scale));
                    Ciphertext acc = enc.encrypt(encoder.encode(
                        randomMessage(rng, ctx.slots()), ctx.scale(),
                        acc_level));
                    acc.scale = ct.scale * const_scale;
                    const Ciphertext expect = eval.add(
                        acc, eval.multConst(eval.levelTo(ct, acc_level),
                                            cplx(v, 0), const_scale));
                    eval.multConstAddInPlace(acc, ct, v, const_scale);
                    EXPECT_TRUE(sameResidues(acc, expect));
                }
            }
        }
    }
}

// --- Per-level bases ---------------------------------------------------

TEST_F(CkksFixture, PerLevelBasesAreBuiltOnce)
{
    const size_t alpha = ctx.alpha();
    for (size_t level = 1; level <= ctx.levels(); ++level) {
        const auto q = ctx.qBasisAt(level);
        const auto qp = ctx.qpBasisAt(level);
        EXPECT_EQ(q.get(), ctx.qBasisAt(level).get());
        EXPECT_EQ(qp.get(), ctx.qpBasisAt(level).get());
        ASSERT_EQ(q->size(), level);
        ASSERT_EQ(qp->size(), level + alpha);
        for (size_t j = 0; j < level; ++j) {
            EXPECT_EQ(q->prime(j), ctx.qBasis()->prime(j));
            EXPECT_EQ(qp->prime(j), ctx.qBasis()->prime(j));
        }
        for (size_t j = 0; j < alpha; ++j)
            EXPECT_EQ(qp->prime(level + j), ctx.pBasis()->prime(j));
    }
    EXPECT_EQ(ctx.qBasisAt(ctx.levels()).get(), ctx.qBasis().get());
    EXPECT_EQ(ctx.qpBasisAt(ctx.levels()).get(), ctx.qpBasis().get());

    // Encoder and evaluator outputs carry their level's cached basis.
    Ciphertext ct = enc.encrypt(
        encoder.encode(randomMessage(rng, 8), ctx.scale(), 4));
    EXPECT_EQ(ct.polys[0].basisPtr().get(), ctx.qBasisAt(4).get());
    for (const RnsPoly &p : eval.rescale(ct).polys)
        EXPECT_EQ(p.basisPtr().get(), ctx.qBasisAt(3).get());
    for (const RnsPoly &p : eval.levelTo(ct, 2).polys)
        EXPECT_EQ(p.basisPtr().get(), ctx.qBasisAt(2).get());
    auto [k0, k1] = eval.keySwitch(ct.polys[1], relin);
    EXPECT_EQ(k0.basisPtr().get(), ctx.qBasisAt(4).get());
    EXPECT_EQ(k1.basisPtr().get(), ctx.qBasisAt(4).get());
}

TEST(CkksDeathTest, BasisLevelOutOfRangeDies)
{
    CkksContext ctx(testParams());
    EXPECT_DEATH(ctx.qBasisAt(0), "out of range");
    EXPECT_DEATH(ctx.qBasisAt(ctx.levels() + 1), "out of range");
    EXPECT_DEATH(ctx.qpBasisAt(0), "out of range");
    EXPECT_DEATH(ctx.qpBasisAt(ctx.levels() + 1), "out of range");
}

TEST(CkksDeathTest, EncodeRejectsScaledValuesPastInt64)
{
    CkksParams p;
    p.logN = 8;
    p.levels = 4;
    p.logScale = 45;
    CkksContext ctx(p);
    CkksEncoder encoder(ctx);
    CkksEvaluator eval(ctx, encoder);

    // 1e5 * 2^45 < 2^63 still encodes exactly enough to read back.
    const auto back = encoder.decode(
        encoder.encode({cplx(1e5, -1e5)}, ctx.scale(), 4), 1);
    EXPECT_LT(std::abs(back[0] - cplx(1e5, -1e5)), 1e-3);

    // 3e5 * 2^45 and 1e6 * 2^45 exceed 2^63; llround's result there is
    // unspecified (glibc gives INT64_MIN, which decodes as -262144).
    EXPECT_DEATH(encoder.encode({cplx(300000.0, 0)}, ctx.scale(), 4),
                 "does not fit in an int64");
    EXPECT_DEATH(encoder.encode({cplx(0, -1e6)}, ctx.scale(), 4),
                 "does not fit in an int64");
    EXPECT_DEATH(encoder.encodeRealConstant(300000.0, ctx.scale(), 4),
                 "does not fit in an int64");

    Ciphertext ct;
    ct.scale = ctx.scale();
    for (int i = 0; i < 2; ++i)
        ct.polys.emplace_back(ctx.qBasisAt(4), PolyFormat::Eval);
    EXPECT_DEATH(eval.multConst(ct, cplx(300000.0, 0), ctx.scale()),
                 "does not fit in an int64");
    EXPECT_DEATH(eval.addConst(ct, cplx(-1e6, 0)), "does not fit in an int64");
}

} // namespace
} // namespace effact
