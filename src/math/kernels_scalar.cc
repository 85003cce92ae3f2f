/**
 * @file
 * Scalar kernel tier — the dispatchable oracle.
 *
 * These are the original (pre-SIMD) loop bodies of Ntt::forward /
 * Ntt::backward, the RnsPoly elementwise ops and the
 * BaseConverter inner loops, moved here verbatim. Every other tier is
 * pinned exact-`u64`-identical to these functions by
 * tests/test_simd_kernels.cc; do not "optimize" them — their value is
 * being the reference.
 */
#include "math/kernels.h"

namespace effact {
namespace kernels {
namespace {

void
addModScalar(u64 *dst, const u64 *a, const u64 *b, size_t n, u64 q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = addMod(a[i], b[i], q);
}

void
subModScalar(u64 *dst, const u64 *a, const u64 *b, size_t n, u64 q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = subMod(a[i], b[i], q);
}

void
negModScalar(u64 *dst, const u64 *a, size_t n, u64 q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = negMod(a[i], q);
}

void
mulModScalar(u64 *dst, const u64 *a, const u64 *b, size_t n,
             const Barrett &br)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = br.mul(a[i], b[i]);
}

void
mulConstScalar(u64 *dst, const u64 *a, size_t n, u64 c, const Barrett &br)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = br.mul(a[i], c);
}

void
macConstScalar(u64 *dst, const u64 *a, size_t n, u64 c, const Barrett &br)
{
    const u64 q = br.modulus();
    for (size_t i = 0; i < n; ++i)
        dst[i] = addMod(dst[i], br.mul(a[i], c), q);
}

void
nttForwardScalar(u64 *a, size_t n, const NttTables &tb)
{
    // Cooley-Tukey DIT with merged psi powers (Longa-Naehrig style):
    // natural-order input, bit-reversed-order output.
    const Barrett &barrett = *tb.barrett;
    const u64 q = tb.q;
    size_t t = n;
    for (size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (size_t i = 0; i < m; ++i) {
            const u64 w = tb.roots[m + i];
            const size_t j1 = 2 * i * t;
            for (size_t j = j1; j < j1 + t; ++j) {
                const u64 u = a[j];
                const u64 v = barrett.mul(a[j + t], w);
                a[j] = addMod(u, v, q);
                a[j + t] = subMod(u, v, q);
            }
        }
    }
}

void
nttInverseScalar(u64 *a, size_t n, const NttTables &tb)
{
    // Gentleman-Sande DIF consuming bit-reversed order.
    const Barrett &barrett = *tb.barrett;
    const u64 q = tb.q;
    size_t t = 1;
    for (size_t m = n; m > 1; m >>= 1) {
        const size_t h = m >> 1;
        for (size_t i = 0; i < h; ++i) {
            const u64 w = tb.invRoots[h + i];
            const size_t j1 = 2 * i * t;
            for (size_t j = j1; j < j1 + t; ++j) {
                const u64 u = a[j];
                const u64 v = a[j + t];
                a[j] = addMod(u, v, q);
                a[j + t] = barrett.mul(subMod(u, v, q), w);
            }
        }
        t <<= 1;
    }
}

} // namespace

const KernelTable &
scalarKernels()
{
    static const KernelTable table = {
        addModScalar,      subModScalar,      negModScalar,
        mulModScalar,      mulConstScalar,    macConstScalar,
        nttForwardScalar,  nttInverseScalar,
    };
    return table;
}

} // namespace kernels
} // namespace effact
