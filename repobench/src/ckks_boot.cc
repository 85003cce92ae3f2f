/**
 * @file
 * `ckks-boot`: serial functional CKKS bootstrapping at the parameters of
 * examples/bootstrap_pipeline.cc (logN 8, L 16, sine degree 159, kRange
 * 8). Each operation encrypts a fresh seeded message at level 1,
 * bootstraps it, decrypts and checks it. The only workload that runs
 * the math, rns and ckks layers.
 */
#include <cmath>
#include <cstdio>

#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "harness.h"

namespace repobench {

using namespace effact;

namespace {

/** The example's bound on the maximum slot error after bootstrapping. */
constexpr double kMaxSlotError = 1e-2;

CkksParams
ringParams()
{
    CkksParams params;
    params.logN = 8;
    params.levels = 16;
    params.logScale = 45;
    params.logQ0 = 54;
    params.hammingWeight = 16;
    return params;
}

BootstrapConfig
bootConfig()
{
    BootstrapConfig config;
    config.kRange = 8.0;
    config.sineDegree = 159;
    return config;
}

/** Context, keys and the precomputed bootstrapper. Members refer to one
 *  another, so the object stays where it was built. */
struct CkksSetup
{
    explicit CkksSetup(uint64_t seed)
        : ctx(ringParams()), encoder(ctx), keyRng(seed ^ 0x6b65797321ULL),
          keygen(ctx, keyRng), sk(keygen.genSecretKey()),
          relin(keygen.genRelinKey(sk)),
          eval(ctx, encoder, &relin, &galois),
          boot(ctx, encoder, eval, bootConfig()), encRng(seed),
          encryptor(ctx, sk, encRng)
    {
        galois = keygen.genGaloisKeys(sk, boot.requiredRotations(),
                                      /*conjugate=*/true);
    }
    CkksSetup(const CkksSetup &) = delete;
    CkksSetup &operator=(const CkksSetup &) = delete;

    CkksContext ctx;
    CkksEncoder encoder;
    Rng keyRng;
    KeyGenerator keygen;
    SecretKey sk;
    SwitchingKey relin;
    GaloisKeys galois;
    CkksEvaluator eval;
    Bootstrapper boot;
    Rng encRng;
    CkksEncryptor encryptor;
};

/** Operation `i`'s message and ciphertext, fixed by (seed, i) alone. */
struct Input
{
    std::vector<cplx> msg;
    Ciphertext ct;
};

Input
makeInput(CkksSetup &s, uint64_t seed, uint64_t i, size_t level)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + i);
    Input in;
    in.msg.resize(s.ctx.slots());
    for (cplx &v : in.msg)
        v = cplx(rng.uniformReal() - 0.5, 0.0);
    s.encRng.reseed(rng.next());
    in.ct = s.encryptor.encrypt(
        s.encoder.encode(in.msg, s.ctx.scale(), level));
    return in;
}

double
maxSlotError(const CkksSetup &s, const Input &in, const Ciphertext &out)
{
    const std::vector<cplx> got =
        s.encoder.decode(s.encryptor.decrypt(out), in.msg.size());
    double err = 0;
    for (size_t i = 0; i < got.size(); ++i)
        err = std::max(err, std::abs(got[i] - in.msg[i]));
    return err;
}

/** Bootstrap through the stage methods, in `bootstrap()`'s order. */
Ciphertext
tracedBootstrap(const CkksSetup &s, const Ciphertext &ct, Tracer &tracer)
{
    Span op(tracer, "bench.bootstrap");
    Ciphertext raised, lo2, hi2, out;
    std::pair<Ciphertext, Ciphertext> halves;
    {
        Span span(tracer, "ckks.boot.modraise");
        raised = s.boot.modRaise(ct);
    }
    {
        Span span(tracer, "ckks.boot.cts");
        halves = s.boot.coeffToSlot(raised);
    }
    {
        Span span(tracer, "ckks.boot.evalmod");
        lo2 = s.boot.evalMod(halves.first);
        hi2 = s.boot.evalMod(halves.second);
    }
    {
        Span span(tracer, "ckks.boot.stc");
        out = s.boot.slotToCoeff(lo2, hi2);
    }
    return out;
}

/** Mean microseconds per call of `fn` over `reps` calls, spanned. */
template <typename Fn>
double
microUs(Tracer &tracer, const std::string &span, int reps, Fn fn)
{
    Span outer(tracer, span);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < reps; ++i)
        fn();
    return msSince(t0) * 1e3 / reps;
}

/** Kernel and evaluator timings at the workload's ring. */
void
addMicroMetrics(Report &report, CkksSetup &s, uint64_t seed, Tracer &tracer)
{
    const size_t levels = s.ctx.levels();
    const Ntt &ntt = s.ctx.qBasis()->limb(0).ntt;
    Rng rng(seed + 17);
    std::vector<u64> poly(s.ctx.degree());
    for (u64 &c : poly)
        c = rng.uniform(ntt.modulus());
    std::vector<Metric> &m = report.perLayer;
    m.push_back({"math.ntt_fwd_us",
                 microUs(tracer, "math.ntt_fwd", 4000,
                         [&] { ntt.forward(poly); }),
                 "us"});
    m.push_back({"math.ntt_inv_us",
                 microUs(tracer, "math.ntt_inv", 4000,
                         [&] { ntt.backward(poly); }),
                 "us"});

    const BaseConverter &conv = s.ctx.modUpConverter(0, levels);
    const auto [begin, end] = s.ctx.digitRange(0, levels);
    RnsPoly digit(s.ctx.qBasis()->range(begin, end), PolyFormat::Coeff);
    digit.sampleUniform(rng);
    m.push_back({"rns.bconv_us",
                 microUs(tracer, "rns.bconv", 400,
                         [&] { conv.convert(digit); }),
                 "us"});

    const Input in = makeInput(s, seed, ~uint64_t(0), levels);
    int step = 0;
    for (int r : s.boot.requiredRotations())
        if (r != 0) {
            step = r;
            break;
        }
    m.push_back({"ckks.keyswitch_ms",
                 microUs(tracer, "ckks.keyswitch", 40,
                         [&] { s.eval.keySwitch(in.ct.polys[1], s.relin); }) /
                     1e3,
                 "ms"});
    m.push_back({"ckks.rotate_ms",
                 microUs(tracer, "ckks.rotate", 40,
                         [&] { s.eval.rotate(in.ct, step); }) /
                     1e3,
                 "ms"});
    m.push_back({"ckks.mult_ms",
                 microUs(tracer, "ckks.mult", 40,
                         [&] { s.eval.mult(in.ct, in.ct); }) /
                     1e3,
                 "ms"});
}

} // namespace

Report
runCkksBoot(const Args &args)
{
    Report report;

    // Set-up: context, key generation and the bootstrapper's precompute.
    CkksSetup s(args.seed);
    const double setupS = msSince(gProcessStart) / 1e3;

    // Timed phase: one bootstrap per operation; encryption, decryption
    // and the check run inside the phase but outside each sample.
    std::vector<double> latMs;
    double worstFirst = 0; ///< over the first kMinOps operations
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kMinOps || msSince(t0) < args.seconds * 1e3;
         ++i) {
        const Input in = makeInput(s, args.seed, i, 1);
        const Clock::time_point b0 = Clock::now();
        const Ciphertext fresh = s.boot.bootstrap(in.ct);
        latMs.push_back(msSince(b0));
        const double err = maxSlotError(s, in, fresh);
        if (i < kMinOps)
            worstFirst = std::max(worstFirst, err);
        if (!(err < kMaxSlotError)) {
            ++report.failed;
            report.errors.push_back("bootstrap " + std::to_string(i) +
                                    ": max slot error " +
                                    std::to_string(err));
        }
    }
    const double phaseS = msSince(t0) / 1e3;
    report.attempted = latMs.size();
    report.endToEnd.push_back({"setup_s", setupS, "s"});
    addLatencyMetrics(report, latMs, double(latMs.size()), phaseS);
    report.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB"});

    const double bits = -std::log2(worstFirst);
    report.extra.push_back({"precision_bits", bits, "bits"});
    char digest[64];
    std::snprintf(digest, sizeof(digest), "precision_bits=%.17g\n", bits);
    report.deterministic = digest;
    if (!args.trace)
        return report;

    Tracer tracer(true);
    addMicroMetrics(report, s, args.seed, tracer);
    const Clock::time_point t1 = Clock::now();
    for (uint64_t i = 0; i < kMinOps || msSince(t1) < args.seconds * 1e3;
         ++i) {
        const Input in = makeInput(s, args.seed, i, 1);
        const Ciphertext fresh = tracedBootstrap(s, in.ct, tracer);
        const double err = maxSlotError(s, in, fresh);
        if (!(err < kMaxSlotError))
            report.errors.push_back("traced bootstrap " +
                                    std::to_string(i) + ": max slot error " +
                                    std::to_string(err));
    }
    for (const char *stage : {"modraise", "cts", "evalmod", "stc"})
        addSpanMedian(report, tracer,
                      std::string("ckks.boot.") + stage + "_ms",
                      std::string("ckks.boot.") + stage);
    addTraceSummary(report, tracer, "bench.bootstrap", median(latMs));
    addNotRun(report, kCompileMetrics);
    addNotRun(report, kStagedMetrics);
    addNotRun(report, kServiceMetrics);
    if (!args.traceFile.empty() && !tracer.write(args.traceFile))
        report.errors.push_back("cannot write " + args.traceFile);
    return report;
}

} // namespace repobench
