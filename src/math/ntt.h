/**
 * @file
 * Negative-wrapped-convolution (NWC) NTT over Z_q[X]/(X^N + 1) (Eq. 1).
 *
 * The forward transform is a Cooley-Tukey decimation-in-time network whose
 * twiddle factors are stored in bit-reversed order, so coefficient vectors
 * never need an explicit bit-reversal pass — exactly the optimization
 * EFFACT applies in hardware (Sec. IV-D3: "perform the bit-reversal
 * operation on twiddle factors rather than the N coefficients"). Output is
 * in bit-reversed evaluation order; the inverse (Gentleman-Sande) consumes
 * that order and restores natural coefficient order, 1/N scale included.
 * The merged BConv of Eq. 5, which folds that 1/N into the first BConv
 * constant, is a compiler rewrite (compiler/peephole.cc); its scalar
 * oracle lives in tests/support/reference_bconv.h.
 */
#ifndef EFFACT_MATH_NTT_H
#define EFFACT_MATH_NTT_H

#include <cstddef>
#include <vector>

#include "common/simd.h"
#include "math/kernels.h"
#include "math/mod_arith.h"

namespace effact {

/** NWC NTT plan for a fixed (N, q) pair. */
class Ntt
{
  public:
    /** Builds tables for ring degree `n` (power of two) and prime q. */
    Ntt(size_t n, u64 q);

    size_t degree() const { return n_; }
    u64 modulus() const { return q_; }

    /** 2N-th primitive root used by this plan. */
    u64 psi() const { return psi_; }

    /** In-place forward NTT: natural coeff order -> bit-reversed eval. */
    void forward(u64 *a) const;

    /** In-place inverse NTT: bit-reversed eval -> natural coeff order,
     *  including the 1/N scale. */
    void backward(u64 *a) const;

    /** Convenience on vectors (size must be N). */
    void forward(std::vector<u64> &a) const;
    void backward(std::vector<u64> &a) const;

    /**
     * Twiddle tables in kernel-dispatch form (bit-reversed roots plus
     * their Shoup pre-scaled images) — what the SIMD tiers consume.
     */
    kernels::NttTables kernelTables() const;

  private:
    size_t n_;
    u64 q_;
    u64 psi_;
    u64 nInv_;
    Barrett barrett_;
    AlignedU64Vec rootsBitrev_;      ///< psi^k, k bit-reversed, CT order
    AlignedU64Vec rootsShoup_;       ///< floor(rootsBitrev * 2^64 / q)
    AlignedU64Vec invRootsBitrev_;   ///< psi^-k for the GS network
    AlignedU64Vec invRootsShoup_;    ///< floor(invRootsBitrev * 2^64 / q)
};

} // namespace effact

#endif // EFFACT_MATH_NTT_H
