/**
 * @file
 * Fast RNS base conversion (BConv, Eq. 3) with the paper's merged
 * double-Montgomery form (Eq. 5).
 *
 * BConv_{C->B}(a) = { ( sum_j (a_j * qhat_j^-1 mod q_j) * qhat_j ) mod p_i }
 *
 * EFFACT removes dedicated BConv units: the conversion is expressed as
 * residue-polynomial MULT/MAC instructions on the normal units (Sec. III-1).
 * The merged form keeps runtime data in single-Montgomery (SM) form,
 * pre-folds 1/N from the preceding iNTT into the first constant, and uses
 * a double-Montgomery (DM) second constant so no explicit Montgomery
 * conversions are needed across the modulus switch (Sec. IV-D5).
 */
#ifndef EFFACT_RNS_BCONV_H
#define EFFACT_RNS_BCONV_H

#include <memory>
#include <vector>

#include "rns/poly.h"

namespace effact {

/** Precomputed converter from basis C (source) to basis B (target). */
class BaseConverter
{
  public:
    BaseConverter(std::shared_ptr<const RnsBasis> from,
                  std::shared_ptr<const RnsBasis> to);

    const RnsBasis &from() const { return *from_; }
    const RnsBasis &to() const { return *to_; }
    std::shared_ptr<const RnsBasis> fromPtr() const { return from_; }

    /**
     * Fast base conversion of a Coeff-format polynomial on `from()` to a
     * Coeff-format polynomial on `to()` (approximate: result may carry a
     * small multiple of Q, as in all HPS-style converters).
     */
    RnsPoly convert(const RnsPoly &a) const;

    /**
     * Floating-point-corrected conversion: estimates the overflow multiple
     * e = round(sum_j v_j / q_j) and subtracts e*Q, yielding the exact
     * *centered* representative on the target basis. Used for ModDown,
     * where the +eQ slack of the fast converter would become noise.
     */
    RnsPoly convertExact(const RnsPoly &a) const;

    /**
     * Same conversion computed entirely in the Montgomery domain using
     * SM inputs / DM constants (Eq. 5). `scale_n_inv` additionally folds
     * the iNTT's 1/N constant into the first multiply; the input is then
     * expected to be an un-scaled iNTT output.
     *
     * Input limbs are interpreted as SM representations; output limbs are
     * SM representations. Matches `convert` exactly when fed the same
     * logical values (see tests).
     */
    RnsPoly convertMontgomery(const RnsPoly &a_sm, bool scale_n_inv) const;

    /** Number of MULT ops one conversion costs (for Fig. 3 accounting). */
    size_t multCount() const { return from_->size() * (1 + to_->size()); }

    /** Number of ADD ops one conversion costs. */
    size_t addCount() const
    {
        return to_->size() * (from_->size() - 1);
    }

  private:
    std::shared_ptr<const RnsBasis> from_;
    std::shared_ptr<const RnsBasis> to_;

    /** qhat_j^-1 mod q_j (plain / NM). */
    std::vector<u64> qhatInv_;
    /** qhat_j mod p_i, indexed [j][i] (plain / NM). */
    std::vector<std::vector<u64>> qhatModP_;

    /** (qhat_j^-1 * 1/N) mod q_j, NM constant of Eq. 5. */
    std::vector<u64> qhatInvNInv_;
    /** 1.0 / q_j for the overflow estimate of convertExact. */
    std::vector<long double> qInvReal_;
    /**
     * e*Q mod p_i for every overflow multiple e in [0, l], indexed
     * [i][e]: convertExact's correction, looked up rather than computed.
     */
    std::vector<std::vector<u64>> eqModP_;
    /** qhat_j^-1 mod q_j in NM form (same as qhatInv_, alias for clarity) */
    /** qhat_j mod p_i in DM form, indexed [j][i]. */
    std::vector<std::vector<u64>> qhatModPDm_;
};

} // namespace effact

#endif // EFFACT_RNS_BCONV_H
