/**
 * @file
 * Kernel-table dispatch: tier -> table, with graceful fallback when a
 * tier's translation unit was built without its instruction set (the
 * AVX2 and AVX-512 TUs compile to stubs on non-x86 hosts). The active
 * tier itself is resolved in common/simd.cc from CPUID + `EFFACT_SIMD`.
 */
#include "math/kernels.h"

namespace effact {
namespace kernels {

// Defined in kernels_avx2.cc / kernels_avx512.cc; each returns nullptr
// when its TU was built without the tier's instruction set.
const KernelTable *avx2KernelsOrNull();
const KernelTable *avx512KernelsOrNull();

const KernelTable &
forTier(SimdTier tier)
{
    if (tier >= SimdTier::Avx512) {
        if (const KernelTable *t = avx512KernelsOrNull())
            return *t;
    }
    if (tier >= SimdTier::Avx2) {
        if (const KernelTable *t = avx2KernelsOrNull())
            return *t;
    }
    return scalarKernels();
}

} // namespace kernels
} // namespace effact
