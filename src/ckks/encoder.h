/**
 * @file
 * CKKS encoder: canonical-embedding packing of N/2 complex slots into a
 * degree-N real polynomial (Sec. II-A), via the "special FFT" over the
 * 5^j orbit of 2N-th roots of unity. The slot ordering is chosen so that
 * the Galois automorphism sigma_{5} rotates slots left by one — the
 * convention the evaluator's rotation relies on.
 */
#ifndef EFFACT_CKKS_ENCODER_H
#define EFFACT_CKKS_ENCODER_H

#include "ckks/params.h"
#include "ckks/types.h"

namespace effact {

/** Encoder/decoder bound to a context. */
class CkksEncoder
{
  public:
    explicit CkksEncoder(const CkksContext &ctx);

    /**
     * Encodes `msg` (size must divide N/2; shorter vectors are packed
     * sparsely with gap replication) at `scale` onto the `level`-limb
     * prefix basis. Returns an Eval-format plaintext. Every scaled value
     * must lie strictly within (-2^63, 2^63).
     */
    Plaintext encode(const std::vector<cplx> &msg, double scale,
                     size_t level) const;

    /** Encodes a constant into every slot. */
    Plaintext encodeConstant(cplx value, double scale, size_t level) const;

    /**
     * A real constant as scalars: entry j is c mod q_j, c =
     * llround(value * scale). encodeConstant puts c at coefficient 0
     * alone, so c mod q_j is that plaintext's value at every evaluation
     * point of limb j.
     */
    std::vector<u64> encodeRealConstant(double value, double scale,
                                        size_t level) const;

    /** Decodes `slots` values from a plaintext (any format; not modified) */
    std::vector<cplx> decode(const Plaintext &pt, size_t slots) const;

    /** Inverse special FFT on raw slot values (exposed for tests). */
    void fftSpecialInv(std::vector<cplx> &vals) const;

    /** Forward special FFT (decode direction, exposed for tests). */
    void fftSpecial(std::vector<cplx> &vals) const;

    const CkksContext &context() const { return ctx_; }

  private:
    const CkksContext &ctx_;
    std::vector<u64> rotGroup_;  ///< 5^j mod 2N
    std::vector<cplx> ksiPows_;  ///< exp(2*pi*i*k / 2N)
};

} // namespace effact

#endif // EFFACT_CKKS_ENCODER_H
