/**
 * @file
 * CKKS parameter set and context (Table I / Table III of the paper).
 *
 * The context owns the modulus chain: L "data" primes q_0..q_{L-1}
 * (q_0 wider for decryption margin, the rest sized to the scale) plus
 * alpha special primes p_0..p_{alpha-1} for dnum-digit key-switching.
 */
#ifndef EFFACT_CKKS_PARAMS_H
#define EFFACT_CKKS_PARAMS_H

#include <cstddef>
#include <memory>
#include <vector>

#include "rns/bconv.h"
#include "rns/poly.h"

namespace effact {

/** User-facing CKKS parameters. */
struct CkksParams
{
    size_t logN = 13;       ///< ring degree 2^logN
    size_t levels = 8;      ///< number of q-chain primes L
    unsigned logScale = 40; ///< log2 of the encoding scale Delta
    unsigned logQ0 = 54;    ///< bit width of the first prime (paper: 54)
    size_t dnum = 4;        ///< key-switching decomposition digits
    int hammingWeight = 32; ///< secret key Hamming weight (sparse ternary)
    double sigma = 3.2;     ///< error standard deviation
};

/** Precomputed CKKS context shared by all scheme objects. */
class CkksContext
{
  public:
    explicit CkksContext(const CkksParams &params);

    const CkksParams &params() const { return params_; }
    size_t degree() const { return n_; }
    size_t slots() const { return n_ / 2; }
    size_t levels() const { return params_.levels; }
    size_t alpha() const { return alpha_; }
    double scale() const { return scale_; }

    /** Full Q-chain basis (L limbs). */
    std::shared_ptr<const RnsBasis> qBasis() const { return q_basis_; }

    /** Special-prime basis (alpha limbs). */
    std::shared_ptr<const RnsBasis> pBasis() const { return p_basis_; }

    /**
     * Q-chain prefix of `level` limbs, 1 <= level <= L. Built once by the
     * constructor: every call at one level returns the same basis.
     */
    std::shared_ptr<const RnsBasis> qBasisAt(size_t level) const;

    /** Q_l ∪ P basis used during key switching at `level` (built once). */
    std::shared_ptr<const RnsBasis> qpBasisAt(size_t level) const;

    /** Full Q ∪ P basis (keys live here). */
    std::shared_ptr<const RnsBasis> qpBasis() const { return qp_basis_; }

    /** Digit d's prime index range [begin, end) clipped to `level`. */
    std::pair<size_t, size_t> digitRange(size_t digit, size_t level) const;

    /** Number of digits active at `level`. */
    size_t digitCount(size_t level) const;

    /** P mod q_j for every q in the chain (ModDown divisor). */
    u64 pModQ(size_t j) const { return p_mod_q_[j]; }

    /** P^-1 mod q_j. */
    u64 pInvModQ(size_t j) const { return p_inv_mod_q_[j]; }

    /**
     * Rescale's divisor at `level`: entry j is q_{level-1}^-1 mod q_j,
     * for j < level - 1.
     */
    const std::vector<u64> &rescaleInv(size_t level) const;

    /** Cached converter: digit `d` at `level` -> Q_level ∪ P. */
    const BaseConverter &modUpConverter(size_t digit, size_t level) const;

    /** Cached converter: P -> Q_level (for ModDown). */
    const BaseConverter &modDownConverter(size_t level) const;

  private:
    CkksParams params_;
    size_t n_;
    size_t alpha_;
    double scale_;
    std::shared_ptr<RnsBasis> q_basis_;
    std::shared_ptr<RnsBasis> p_basis_;
    std::shared_ptr<RnsBasis> qp_basis_;
    std::vector<std::shared_ptr<const RnsBasis>> q_bases_;  ///< [level - 1]
    std::vector<std::shared_ptr<const RnsBasis>> qp_bases_; ///< [level - 1]
    std::vector<u64> p_mod_q_;
    std::vector<u64> p_inv_mod_q_;
    std::vector<std::vector<u64>> rescale_inv_; ///< [level - 1]

    mutable std::vector<std::vector<std::unique_ptr<BaseConverter>>>
        mod_up_cache_; ///< [level][digit]
    mutable std::vector<std::unique_ptr<BaseConverter>>
        mod_down_cache_; ///< [level]
};

} // namespace effact

#endif // EFFACT_CKKS_PARAMS_H
