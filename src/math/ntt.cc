#include "math/ntt.h"

#include "common/bitops.h"
#include "common/logging.h"
#include "math/primes.h"

namespace effact {

Ntt::Ntt(size_t n, u64 q) : n_(n), q_(q), barrett_(q)
{
    EFFACT_ASSERT(isPowerOfTwo(n) && n >= 2, "NTT size must be a power of 2");
    EFFACT_ASSERT((q - 1) % (2 * n) == 0,
                  "modulus %llu is not NTT-friendly for N=%zu",
                  static_cast<unsigned long long>(q), n);

    psi_ = findPrimitiveRoot(2 * static_cast<u64>(n), q);
    nInv_ = invMod(static_cast<u64>(n), q);

    const uint32_t logn = log2Exact(n);
    rootsBitrev_.resize(n);
    invRootsBitrev_.resize(n);
    rootsShoup_.resize(n);
    invRootsShoup_.resize(n);
    const u64 psi_inv = invMod(psi_, q);
    u64 fwd = 1;
    u64 inv = 1;
    std::vector<u64> fwd_pow(n), inv_pow(n);
    for (size_t i = 0; i < n; ++i) {
        fwd_pow[i] = fwd;
        inv_pow[i] = inv;
        fwd = mulMod(fwd, psi_, q);
        inv = mulMod(inv, psi_inv, q);
    }
    for (size_t i = 0; i < n; ++i) {
        uint32_t r = bitReverse(static_cast<uint32_t>(i), logn);
        rootsBitrev_[i] = fwd_pow[r];
        invRootsBitrev_[i] = inv_pow[r];
        // Shoup pre-scaled images, stored in the same bit-reversed
        // layout so every butterfly stage reads both tables with the
        // same contiguous access pattern.
        rootsShoup_[i] = kernels::shoupPrecompute(rootsBitrev_[i], q);
        invRootsShoup_[i] = kernels::shoupPrecompute(invRootsBitrev_[i], q);
    }
}

kernels::NttTables
Ntt::kernelTables() const
{
    kernels::NttTables t;
    t.q = q_;
    t.roots = rootsBitrev_.data();
    t.rootsShoup = rootsShoup_.data();
    t.invRoots = invRootsBitrev_.data();
    t.invRootsShoup = invRootsShoup_.data();
    t.barrett = &barrett_;
    return t;
}

void
Ntt::forward(u64 *a) const
{
    kernels::active().nttForward(a, n_, kernelTables());
}

void
Ntt::backward(u64 *a) const
{
    const kernels::KernelTable &k = kernels::active();
    k.nttInverse(a, n_, kernelTables());
    k.mulConstV(a, a, n_, nInv_, barrett_);
}

void
Ntt::forward(std::vector<u64> &a) const
{
    EFFACT_ASSERT(a.size() == n_, "NTT size mismatch");
    forward(a.data());
}

void
Ntt::backward(std::vector<u64> &a) const
{
    EFFACT_ASSERT(a.size() == n_, "NTT size mismatch");
    backward(a.data());
}

} // namespace effact
