/**
 * @file
 * Kernel-tier microbench: times the dispatched math kernels — NTT
 * forward/inverse, pointwise modmul, BConv — under the scalar oracle
 * tier and under the best tier this host supports, from one binary.
 *
 * Two jobs in one harness:
 *
 *  - Exactness gate: before timing anything, every kernel family is run
 *    under *every* available tier on identical inputs and the outputs
 *    are folded into one FNV-1a fingerprint per tier; the process
 *    aborts if any tier disagrees with the scalar oracle. The common
 *    fingerprint is emitted as the deterministic `kernels.fingerprint`
 *    field, so the CI gate also pins the oracle's semantics across
 *    commits and machines.
 *
 *  - Wall clock: fixed iteration counts per family, best-of-reps, one
 *    `*_wall_ms` pair (scalar vs vector) per family. On a host without
 *    any vector tier the "vector" numbers are just a second scalar
 *    measurement and the speedup hovers at 1.0 — the JSON stays
 *    schema-identical everywhere.
 *
 * Usage: bench_kernels [output.json]   (default: BENCH_kernels.json)
 */
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "math/kernels.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "rns/bconv.h"

namespace effact {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kDegree = 4096; ///< ring degree for every measurement
constexpr int kReps = 5;         ///< best-of reps per measurement

double
msSince(const Clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

u64
fnv1a(u64 h, const u64 *data, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The fixed scene every measurement and the exactness gate share. */
struct Scene
{
    Ntt ntt;
    AlignedU64Vec poly;             ///< reduced mod ntt.modulus()
    AlignedU64Vec polyB;            ///< second operand, same modulus
    std::shared_ptr<RnsBasis> from; ///< 6 x 40-bit
    std::shared_ptr<RnsBasis> to;   ///< 6 x 40-bit, disjoint
    BaseConverter bconv;
    RnsPoly rnsInput;

    static Scene
    make()
    {
        const u64 q = genNttPrimes(1, 54, kDegree)[0];
        Ntt ntt(kDegree, q);
        Rng rng(1);
        AlignedU64Vec a(kDegree), b(kDegree);
        for (auto &c : a)
            c = rng.uniform(q);
        for (auto &c : b)
            c = rng.uniform(q);
        auto from = std::make_shared<RnsBasis>(kDegree,
                                               genNttPrimes(6, 40, kDegree));
        auto to = std::make_shared<RnsBasis>(
            kDegree, genNttPrimes(6, 40, kDegree, from->primes()));
        BaseConverter bc(from, to);
        RnsPoly p(from, PolyFormat::Coeff);
        Rng rng2(2);
        p.sampleUniform(rng2);
        return Scene{std::move(ntt), std::move(a),   std::move(b),
                     std::move(from), std::move(to), std::move(bc),
                     std::move(p)};
    }
};

/** One kernel family: how to run it once, folding outputs into `h`. */
struct Family
{
    const char *name; ///< JSON key
    int iters;        ///< timed iterations per rep
    u64 (*runOnce)(const Scene &s, u64 h);
};

u64
runNttForward(const Scene &s, u64 h)
{
    AlignedU64Vec a = s.poly;
    s.ntt.forward(a.data());
    return fnv1a(h, a.data(), a.size());
}

u64
runNttInverse(const Scene &s, u64 h)
{
    AlignedU64Vec a = s.poly; // any reduced vector is a valid eval input
    s.ntt.backward(a.data());
    return fnv1a(h, a.data(), a.size());
}

u64
runPointwiseMul(const Scene &s, u64 h)
{
    AlignedU64Vec dst(kDegree);
    kernels::active().mulModV(dst.data(), s.poly.data(), s.polyB.data(),
                              kDegree, s.ntt.kernelTables().barrett[0]);
    return fnv1a(h, dst.data(), dst.size());
}

u64
runBconvPlain(const Scene &s, u64 h)
{
    RnsPoly out = s.bconv.convert(s.rnsInput);
    for (size_t j = 0; j < out.limbCount(); ++j)
        h = fnv1a(h, out.limb(j).data(), out.limb(j).size());
    return h;
}

const Family kFamilies[] = {
    {"ntt_forward", 200, runNttForward},
    {"ntt_inverse", 200, runNttInverse},
    {"pointwise_mul", 400, runPointwiseMul},
    {"bconv", 40, runBconvPlain},
};
constexpr size_t kFamilyCount = sizeof(kFamilies) / sizeof(kFamilies[0]);

/**
 * Runs every family once under `tier` and returns the combined
 * fingerprint. All tiers must return the same value — checked below.
 */
u64
fingerprintTier(const Scene &s, SimdTier tier)
{
    const SimdTier installed = setSimdTier(tier);
    EFFACT_ASSERT(installed == tier, "tier %s unavailable mid-gate",
                  simdTierName(tier));
    u64 h = 0xcbf29ce484222325ULL;
    for (const Family &f : kFamilies)
        h = f.runOnce(s, h);
    return h;
}

/** Best-of-kReps wall clock of `iters` runs of one family. */
double
timeFamily(const Scene &s, const Family &f)
{
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        u64 sink = 0xcbf29ce484222325ULL;
        for (int it = 0; it < f.iters; ++it)
            sink = f.runOnce(s, sink);
        const double ms = msSince(t0);
        // Keep the fold observable so the loop cannot be elided.
        if (sink == 0)
            std::fprintf(stderr, "impossible fold\n");
        best = std::min(best, ms);
    }
    return best;
}

int
emit(const char *path)
{
    const Scene s = Scene::make();
    const SimdTier best_tier = maxSupportedSimdTier();

    // Exactness gate first: every available tier must agree with the
    // scalar oracle before any number is recorded.
    const u64 oracle = fingerprintTier(s, SimdTier::Scalar);
    std::string tiers = simdTierName(SimdTier::Scalar);
    for (int t = 1; t <= static_cast<int>(best_tier); ++t) {
        const SimdTier tier = static_cast<SimdTier>(t);
        const u64 got = fingerprintTier(s, tier);
        EFFACT_ASSERT(got == oracle,
                      "tier %s fingerprint 0x%016llx != scalar oracle "
                      "0x%016llx",
                      simdTierName(tier),
                      static_cast<unsigned long long>(got),
                      static_cast<unsigned long long>(oracle));
        tiers += ",";
        tiers += simdTierName(tier);
    }

    double scalar_ms[kFamilyCount];
    double vector_ms[kFamilyCount];
    setSimdTier(SimdTier::Scalar);
    for (size_t i = 0; i < kFamilyCount; ++i)
        scalar_ms[i] = timeFamily(s, kFamilies[i]);
    setSimdTier(best_tier);
    for (size_t i = 0; i < kFamilyCount; ++i)
        vector_ms[i] = timeFamily(s, kFamilies[i]);

    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"effact-bench-kernels-v1\",\n");
    std::fprintf(f, "  \"kernels\": {\n");
    std::fprintf(f, "    \"fingerprint\": \"0x%016" PRIx64 "\",\n", oracle);
    std::fprintf(f, "    \"degree\": %zu,\n", kDegree);
    std::fprintf(f, "    \"tiers_exercised\": \"%s\",\n", tiers.c_str());
    for (size_t i = 0; i < kFamilyCount; ++i) {
        std::fprintf(f,
                     "    \"%s\": {\"scalar_wall_ms\": %.3f, "
                     "\"vector_wall_ms\": %.3f, \"speedup\": %.2f}%s\n",
                     kFamilies[i].name, scalar_ms[i], vector_ms[i],
                     scalar_ms[i] / vector_ms[i],
                     i + 1 < kFamilyCount ? "," : "");
    }
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::fprintf(stderr, "[kernels] tiers %s, fingerprint 0x%016" PRIx64
                         "\n",
                 tiers.c_str(), oracle);
    for (size_t i = 0; i < kFamilyCount; ++i)
        std::fprintf(stderr, "[kernels] %-18s scalar %8.3f ms  vector "
                             "%8.3f ms  x%.2f\n",
                     kFamilies[i].name, scalar_ms[i], vector_ms[i],
                     scalar_ms[i] / vector_ms[i]);
    std::printf("wrote %s\n", path);
    return 0;
}

} // namespace
} // namespace effact

int
main(int argc, char **argv)
{
    return effact::emit(argc > 1 ? argv[1] : "BENCH_kernels.json");
}
