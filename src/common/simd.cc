#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace effact {

namespace {

/**
 * Parses `EFFACT_SIMD` into a tier request. `native` (and unset) asks
 * for the best supported tier; anything unrecognized warns and falls
 * back to `native` so a typo degrades gracefully instead of silently
 * pinning scalar.
 */
SimdTier
tierFromEnv(SimdTier max_supported)
{
    const char *env = std::getenv("EFFACT_SIMD");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "native") == 0)
        return max_supported;
    if (std::strcmp(env, "scalar") == 0)
        return SimdTier::Scalar;
    if (std::strcmp(env, "avx2") == 0) {
        if (SimdTier::Avx2 > max_supported) {
            warn("EFFACT_SIMD=avx2 requested but unsupported on this "
                 "host/build; falling back to %s",
                 simdTierName(max_supported));
            return max_supported;
        }
        return SimdTier::Avx2;
    }
    warn("ignoring invalid EFFACT_SIMD='%s' (want scalar|avx2|native)", env);
    return max_supported;
}

/**
 * Active tier, lazily resolved. -1 = unresolved; worker threads may
 * race on first use, but both racers compute the same value from the
 * same env + CPUID, so the exchange is idempotent.
 */
std::atomic<int> g_active_tier{-1};

} // namespace

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
    case SimdTier::Scalar:
        return "scalar";
    case SimdTier::Avx2:
        return "avx2";
    case SimdTier::Avx512:
        return "avx512";
    }
    return "unknown";
}

SimdTier
maxSupportedSimdTier()
{
    // The tier defines are set only where the compiler takes the x86
    // -mavx2 / -mavx512* flags, so the CPUID builtin exists under them.
#if defined(EFFACT_SIMD_AVX512_COMPILED)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq"))
        return SimdTier::Avx512;
#endif
#if defined(EFFACT_SIMD_AVX2_COMPILED)
    if (__builtin_cpu_supports("avx2"))
        return SimdTier::Avx2;
#endif
    return SimdTier::Scalar;
}

SimdTier
activeSimdTier()
{
    int tier = g_active_tier.load(std::memory_order_acquire);
    if (tier < 0) {
        tier = static_cast<int>(tierFromEnv(maxSupportedSimdTier()));
        g_active_tier.store(tier, std::memory_order_release);
    }
    return static_cast<SimdTier>(tier);
}

SimdTier
setSimdTier(SimdTier tier)
{
    const SimdTier max = maxSupportedSimdTier();
    if (tier > max) {
        warn("setSimdTier(%s) clamped to %s (host/build limit)",
             simdTierName(tier), simdTierName(max));
        tier = max;
    }
    g_active_tier.store(static_cast<int>(tier), std::memory_order_release);
    return tier;
}

} // namespace effact
