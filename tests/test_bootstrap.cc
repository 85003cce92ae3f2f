/**
 * @file
 * Bootstrapping tests: the BSGS linear transform against a plaintext
 * matrix-vector product, the rotation steps its key set needs,
 * Chebyshev BSGS evaluation (scale-exact, its recursion's edge cases,
 * and the levels the IR's `polyEval` mirror consumes), CtS/StC inverse
 * round-trip, and the full fully-packed pipeline refreshing a level-1
 * ciphertext (Sec. V-A).
 */
#include <cmath>

#include <gtest/gtest.h>

#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "ir/kernels.h"

namespace effact {
namespace {

CkksParams
bootParams()
{
    CkksParams p;
    p.logN = 8;
    p.levels = 16;
    // A wider scale (2^45) keeps the EvalMod noise floor low, and the
    // sparse secret (h=16) keeps the ModRaise overflow range small —
    // both standard bootstrapping practice.
    p.logScale = 45;
    p.logQ0 = 54;
    p.dnum = 4;
    p.hammingWeight = 16;
    return p;
}

BootstrapConfig
bootConfig()
{
    BootstrapConfig c;
    c.kRange = 8.0;
    c.sineDegree = 159;
    c.babySteps = 16;
    return c;
}

class BootstrapFixture : public ::testing::Test
{
  protected:
    BootstrapFixture()
        : ctx(bootParams()), encoder(ctx), rng(1234), keygen(ctx, rng),
          sk(keygen.genSecretKey()), relin(keygen.genRelinKey(sk)),
          enc(ctx, sk, rng)
    {
        // Bootstrapping needs every rotation its transforms touch, plus
        // conjugation.
        CkksEvaluator probe(ctx, encoder, &relin, nullptr);
        Bootstrapper probe_boot(ctx, encoder, probe, bootConfig());
        galois = keygen.genGaloisKeys(sk, probe_boot.requiredRotations(),
                                      /*conjugate=*/true);
        eval = std::make_unique<CkksEvaluator>(ctx, encoder, &relin,
                                               &galois);
        boot = std::make_unique<Bootstrapper>(ctx, encoder, *eval, bootConfig());
    }

    /** What one Chebyshev evaluation left behind. */
    struct ChebyRun
    {
        double err;   ///< max |decrypted - Clenshaw| over the slots
        size_t level; ///< the result's level
        double scale; ///< the result's tracked scale
    };

    /** Evaluates `series` with `b` on slot values spread over [-1, 1],
     *  encrypted at the top level. */
    ChebyRun evalSeries(const Bootstrapper &b, const ChebyshevSeries &series)
    {
        const size_t slots = ctx.slots();
        std::vector<cplx> xs(slots);
        for (size_t i = 0; i < slots; ++i)
            xs[i] = cplx(-1.0 + 2.0 * double(i) / double(slots - 1), 0.0);
        Ciphertext ct = enc.encrypt(encoder.encode(xs, ctx.scale(),
                                                   ctx.levels()));
        Ciphertext out = b.evalChebyshev(series, ct);
        auto got = encoder.decode(enc.decrypt(out), slots);
        double err = 0;
        for (size_t i = 0; i < slots; ++i)
            err = std::max(err, std::abs(got[i].real() -
                                         series.eval(xs[i].real())));
        return {err, out.level(), out.scale};
    }

    CkksContext ctx;
    CkksEncoder encoder;
    Rng rng;
    KeyGenerator keygen;
    SecretKey sk;
    SwitchingKey relin;
    GaloisKeys galois;
    CkksEncryptor enc;
    std::unique_ptr<CkksEvaluator> eval;
    std::unique_ptr<Bootstrapper> boot;
};

TEST_F(BootstrapFixture, RequiredRotationsAreBabyAndGiantSteps)
{
    // 128 slots split into n1 = 16 baby steps and 8 giant steps; CtS
    // and StC are dense, so they need every baby and giant step and
    // share one key set: 22 rotations plus the conjugation.
    std::vector<int> expect;
    for (int r = 1; r < 16; ++r)
        expect.push_back(r);
    for (int g = 16; g < 128; g += 16)
        expect.push_back(g);
    EXPECT_EQ(boot->requiredRotations(), expect);
    EXPECT_EQ(galois.size(), expect.size() + 1);
}

TEST_F(BootstrapFixture, LinearTransformMatchesPlaintextProduct)
{
    const size_t slots = ctx.slots();
    Rng mrng(99);
    auto uniform = [&] {
        return cplx(mrng.uniformReal() * 2 - 1, mrng.uniformReal() * 2 - 1);
    };
    std::vector<cplx> x(slots);
    for (cplx &v : x)
        v = 0.5 * uniform();
    Ciphertext ct = enc.encrypt(encoder.encode(x, ctx.scale(),
                                               ctx.levels()));

    // Dense, with entries scaled so each output stays O(1).
    std::vector<cplx> dense(slots * slots);
    for (cplx &v : dense)
        v = uniform() / std::sqrt(double(slots));
    // Diagonals {0, 1, 2, 126, 127}: baby steps 3..13 and giant steps
    // 16..96 are empty.
    std::vector<cplx> banded(slots * slots, cplx(0, 0));
    for (size_t i = 0; i < slots; ++i)
        for (size_t d : {size_t(0), size_t(1), size_t(2), slots - 2,
                         slots - 1})
            banded[i * slots + (i + d) % slots] = uniform();
    std::vector<cplx> identity(slots * slots, cplx(0, 0));
    for (size_t i = 0; i < slots; ++i)
        identity[i * slots + i] = cplx(1, 0);

    struct Case
    {
        const char *name;
        const std::vector<cplx> &matrix;
        std::vector<int> steps;
    };
    const std::vector<Case> cases = {
        {"dense", dense, boot->requiredRotations()},
        {"banded", banded, {1, 2, 14, 15, 112}},
        {"identity", identity, {}},
    };
    for (const Case &c : cases) {
        LinearTransform lt(c.matrix, slots);
        EXPECT_EQ(lt.requiredRotations(), c.steps) << c.name;
        Ciphertext out = lt.apply(*eval, ct);
        EXPECT_EQ(out.level(), ct.level() - 1) << c.name;
        auto got = encoder.decode(enc.decrypt(out), slots);
        for (size_t i = 0; i < slots; ++i) {
            cplx expect(0, 0);
            for (size_t j = 0; j < slots; ++j)
                expect += c.matrix[i * slots + j] * x[j];
            ASSERT_LT(std::abs(got[i] - expect), 1e-4)
                << c.name << " slot " << i;
        }
    }
}

TEST_F(BootstrapFixture, ChebyshevEvalIsScaleExact)
{
    // Evaluate an arbitrary smooth function homomorphically on values in
    // [-1, 1] and compare with the double-precision Clenshaw reference.
    // Every base-case sum is rescaled once and every addition sees equal
    // scales, so the result lands exactly on the context's scale.
    auto f = [](double x) { return std::exp(-x * x) * std::cos(3 * x); };
    const ChebyRun run = evalSeries(*boot, ChebyshevSeries::fit(f, -1.0,
                                                                1.0, 63));
    EXPECT_EQ(run.scale, ctx.scale());
    EXPECT_EQ(run.level, 10u);
    EXPECT_LT(run.err, 1e-8);
}

TEST_F(BootstrapFixture, ChebyshevRecursionEdgeCases)
{
    struct Case
    {
        const char *name;
        ChebyshevSeries series;
        size_t level;
    };
    const std::vector<Case> cases = {
        // Only c_0: the base case rescales its zero sum, then adds c_0.
        {"constant", ChebyshevSeries::fit([](double) { return 0.7; }, -1.0,
                                          1.0, 0),
         15},
        // deg == K == 2m: the root's quotient has degree 0.
        {"exp at 32",
         ChebyshevSeries::fit([](double x) { return std::exp(x); }, -1.0,
                              1.0, 32),
         10},
        // Odd: the base cases skip the even terms.
        {"sin(5x) at 63",
         ChebyshevSeries::fit([](double x) { return std::sin(5 * x); },
                              -1.0, 1.0, 63),
         9},
        {"|x - 0.3| at 127",
         ChebyshevSeries::fit([](double x) { return std::fabs(x - 0.3); },
                              -1.0, 1.0, 127),
         8},
    };
    // exp keeps its top coefficient, and the fit leaves most of sin's
    // 32 even coefficients under the 1e-15 the evaluation skips.
    EXPECT_GE(std::fabs(cases[1].series.coeffs()[32]), 1e-15);
    size_t skipped = 0;
    for (size_t k = 0; k <= 63; k += 2)
        skipped += std::fabs(cases[2].series.coeffs()[k]) < 1e-15;
    EXPECT_GT(skipped, 16u);
    for (const Case &c : cases) {
        const ChebyRun run = evalSeries(*boot, c.series);
        EXPECT_EQ(run.scale, ctx.scale()) << c.name;
        EXPECT_EQ(run.level, c.level) << c.name;
        EXPECT_LT(run.err, 1e-8) << c.name;
    }
}

TEST_F(BootstrapFixture, IrPolyEvalConsumesTheFunctionalLevels)
{
    // KernelBuilder::polyEval mirrors evalChebyshev structurally; from
    // level 16 both must end at the same level, for the EvalMod sine
    // (159, 16), ResNet-20's ReLU (27, 8) and HELR's sigmoid (7, 4).
    // Each series keeps its top coefficient, so neither side trims.
    auto kink = [](double x) { return std::fabs(x - 0.3); };
    struct Case
    {
        size_t degree, baby;
        ChebyshevSeries series;
        size_t level;
    };
    const std::vector<Case> cases = {
        {159, 16, boot->sineSeries(), 8},
        {27, 8, ChebyshevSeries::fit(kink, -1.0, 1.0, 27), 11},
        {7, 4, ChebyshevSeries::fit(kink, -1.0, 1.0, 7), 12},
    };
    for (const Case &c : cases) {
        ASSERT_EQ(c.series.degree(), c.degree);
        ASSERT_GE(std::fabs(c.series.coeffs().back()), 1e-15);
        BootstrapConfig config = bootConfig();
        config.babySteps = c.baby;
        const Bootstrapper b(ctx, encoder, *eval, config);
        const ChebyRun run = evalSeries(b, c.series);

        IrProgram prog;
        KernelBuilder kb(prog, FheParams{});
        const IrCt out = kb.polyEval(kb.inputCiphertext("x", ctx.levels()),
                                     c.degree, c.baby,
                                     kb.switchingKeyObject("evk"));
        EXPECT_EQ(run.level, c.level)
            << "degree " << c.degree << ", baby " << c.baby;
        EXPECT_EQ(out.level, run.level)
            << "degree " << c.degree << ", baby " << c.baby;
    }
}

TEST_F(BootstrapFixture, CtsThenStcIsIdentity)
{
    // StC ∘ (lo, hi) ∘ CtS is the identity linear map; run it on a
    // mod-raised ciphertext and compare decoded slots before/after.
    const size_t slots = ctx.slots();
    std::vector<cplx> msg(slots);
    for (size_t i = 0; i < slots; ++i)
        msg[i] = cplx(0.3 * std::cos(0.1 * double(i)),
                      0.2 * std::sin(0.2 * double(i)));
    Ciphertext ct = enc.encrypt(encoder.encode(msg, ctx.scale(),
                                               ctx.levels()));
    auto [lo, hi] = boot->coeffToSlot(ct);
    Ciphertext back = boot->slotToCoeff(lo, hi);
    auto got = encoder.decode(enc.decrypt(back), slots);
    for (size_t i = 0; i < slots; ++i)
        EXPECT_LT(std::abs(got[i] - msg[i]), 1e-3) << "slot " << i;
}

TEST_F(BootstrapFixture, ModRaisePreservesMessageModQ0)
{
    // After ModRaise the plaintext is m + q0*I: reducing the decrypted
    // coefficients mod q0 must recover the original message.
    const size_t slots = ctx.slots();
    std::vector<cplx> msg(slots);
    for (size_t i = 0; i < slots; ++i)
        msg[i] = cplx(0.25 * std::sin(double(i)), 0.0);
    Ciphertext ct = enc.encrypt(encoder.encode(msg, ctx.scale(), 1));
    Ciphertext raised = boot->modRaise(ct);
    EXPECT_EQ(raised.level(), ctx.levels());
    EXPECT_DOUBLE_EQ(raised.scale, ct.scale);

    Plaintext dec = enc.decrypt(raised);
    RnsPoly poly = dec.poly;
    poly.toCoeff();
    // Reduce every coefficient mod q0 (centered) and decode on 1 limb.
    Plaintext folded;
    folded.scale = dec.scale;
    folded.poly = RnsPoly(ctx.qBasisAt(1), PolyFormat::Coeff);
    const u64 q0 = ctx.qBasis()->prime(0);
    for (size_t i = 0; i < ctx.degree(); ++i)
        folded.poly.limb(0)[i] = poly.limb(0)[i] % q0;
    auto got = encoder.decode(folded, slots);
    for (size_t i = 0; i < slots; ++i)
        EXPECT_LT(std::abs(got[i] - msg[i]), 1e-4) << "slot " << i;
}

TEST_F(BootstrapFixture, FullPipelinePrecisionFloor)
{
    const size_t slots = ctx.slots();
    std::vector<cplx> msg(slots);
    for (size_t i = 0; i < slots; ++i)
        msg[i] = cplx(0.4 * std::cos(0.3 * double(i)),
                      0.3 * std::sin(0.15 * double(i)));

    Ciphertext ct = enc.encrypt(encoder.encode(msg, ctx.scale(), 1));
    ASSERT_EQ(ct.level(), 1u);

    Ciphertext refreshed = boot->bootstrap(ct);
    EXPECT_EQ(refreshed.level(), 5u) << "the bootstrap's depth moved";

    // Scale-exact EvalMod keeps the refreshed message within 2^-12.
    auto got = encoder.decode(enc.decrypt(refreshed), slots);
    double err = 0;
    for (size_t i = 0; i < slots; ++i)
        err = std::max(err, std::abs(got[i] - msg[i]));
    EXPECT_LT(err, std::ldexp(1.0, -12)) << "bootstrapping precision too low";
}

TEST_F(BootstrapFixture, RefreshedCiphertextSupportsFurtherOps)
{
    const size_t slots = ctx.slots();
    std::vector<cplx> msg(slots, cplx(0.5, 0.0));
    Ciphertext ct = enc.encrypt(encoder.encode(msg, ctx.scale(), 1));
    Ciphertext refreshed = boot->bootstrap(ct);
    // Square the refreshed ciphertext: 0.25 expected.
    Ciphertext sq = eval->rescale(eval->mult(refreshed, refreshed));
    auto got = encoder.decode(enc.decrypt(sq), slots);
    for (size_t i = 0; i < slots; ++i)
        EXPECT_NEAR(got[i].real(), 0.25, 2e-2);
}

TEST_F(BootstrapFixture, SineSeriesApproximatesModulo)
{
    // Spot-check the fitted series against x mod q' on in-range inputs.
    const double q_prime =
        double(ctx.qBasis()->prime(0)) / ctx.scale();
    const auto &s = boot->sineSeries();
    const int k_max = static_cast<int>(bootConfig().kRange);
    for (int mult = -k_max; mult <= k_max; mult += 2) {
        for (double eps : {-0.3, 0.0, 0.2}) {
            double x = mult * q_prime + eps;
            EXPECT_NEAR(s.eval(x), q_prime / (2 * M_PI) *
                                       std::sin(2 * M_PI * eps / q_prime),
                        1e-6);
        }
    }
}

} // namespace
} // namespace effact
