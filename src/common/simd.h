/**
 * @file
 * Runtime SIMD tier selection and aligned storage for the math
 * substrate.
 *
 * The hot functional kernels (NTT butterflies, modular multiply, base
 * conversion — see math/kernels.h) exist in one implementation per
 * *tier*. A tier is picked once per process from CPUID, clamped by the
 * `EFFACT_SIMD` environment variable (`scalar`, `avx2` or `native`,
 * mirroring `EFFACT_THREADS`' env-default pattern), and every
 * kernel call dispatches through a per-tier function table. All tiers
 * are exact-value identical — same `u64` outputs, not just the same
 * residues — so the tier knob can never move a fingerprint, a cycle
 * count or a `CompileCache` key; it only moves wall clock.
 *
 * This header owns only the tier policy and the aligned allocator; the
 * kernel tables themselves live in math/kernels.h so `common/` does not
 * depend on the math layer.
 */
#ifndef EFFACT_COMMON_SIMD_H
#define EFFACT_COMMON_SIMD_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace effact {

/**
 * Kernel implementation tiers, ordered: a higher tier is a superset
 * requirement (Avx2 needs x86-64 + AVX2 at build and run time, Avx512
 * needs AVX-512F and AVX-512DQ).
 */
enum class SimdTier : int {
    Scalar = 0, ///< portable C++ loops — the dispatchable oracle
    Avx2 = 1,   ///< 4 x u64 lanes via AVX2 integer intrinsics
    Avx512 = 2, ///< 8 x u64 lanes via AVX-512F/DQ integer intrinsics
};

/** Display name ("scalar", "avx2", "avx512") for logs, stats and tests. */
const char *simdTierName(SimdTier tier);

/**
 * Best tier this build *and* this CPU support: compile-time kernel
 * availability (the AVX2 and AVX-512 translation units are only
 * vectorized on x86-64 with a compiler that takes -mavx2 and
 * -mavx512f -mavx512dq respectively) intersected with CPUID.
 */
SimdTier maxSupportedSimdTier();

/**
 * The tier kernels dispatch on. Resolved once on first use:
 * `EFFACT_SIMD` = `scalar` | `avx2` | `native` (default `native` =
 * maxSupportedSimdTier(), which is avx512 on AVX-512F+DQ hosts); a
 * requested tier the host cannot run is clamped down with a warning,
 * never an error.
 */
SimdTier activeSimdTier();

/**
 * Forces the active tier (clamped to maxSupportedSimdTier()); returns
 * the tier actually installed. Tests and benches use this to compare
 * tiers inside one process; production code should leave the env-
 * resolved default alone.
 */
SimdTier setSimdTier(SimdTier tier);

/**
 * Minimal C++17 aligned allocator: `RnsPoly` limb storage uses it so
 * coefficient vectors start on a 64-byte (cache-line / AVX-512-ready)
 * boundary, making aligned vector loads legal by construction instead
 * of by luck. Kernels still issue unaligned load instructions — free on
 * aligned data, and safe on the arbitrary buffers tests throw at them.
 */
template <typename T, std::size_t Alignment>
class AlignedAllocator
{
    static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                  "alignment must be a power of two >= alignof(T)");

  public:
    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Alignment> &) noexcept
    {}

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Alignment>;
    };

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t(Alignment));
    }

    friend bool
    operator==(const AlignedAllocator &, const AlignedAllocator &) noexcept
    {
        return true;
    }
    friend bool
    operator!=(const AlignedAllocator &, const AlignedAllocator &) noexcept
    {
        return false;
    }
};

/** 64-byte-aligned u64 vector: the math substrate's limb storage type. */
using AlignedU64Vec = std::vector<uint64_t, AlignedAllocator<uint64_t, 64>>;

} // namespace effact

#endif // EFFACT_COMMON_SIMD_H
