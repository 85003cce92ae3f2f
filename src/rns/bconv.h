/**
 * @file
 * Fast RNS base conversion (BConv, Eq. 3).
 *
 * BConv_{C->B}(a) = { ( sum_j (a_j * qhat_j^-1 mod q_j) * qhat_j ) mod p_i }
 *
 * EFFACT removes dedicated BConv units: the conversion is expressed as
 * residue-polynomial MULT/MAC instructions on the normal units (Sec. III-1).
 * The paper's merged form (Eq. 5, Sec. IV-D5) folds the preceding iNTT's
 * 1/N into the first constant; that fold is a compiler rewrite
 * (compiler/peephole.cc). The library converts plain residues, and
 * tests/support/reference_bconv.h keeps Eq. 5 as a scalar oracle.
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

  private:
    std::shared_ptr<const RnsBasis> from_;
    std::shared_ptr<const RnsBasis> to_;

    /** qhat_j^-1 mod q_j. */
    std::vector<u64> qhatInv_;
    /** qhat_j mod p_i, indexed [j][i]. */
    std::vector<std::vector<u64>> qhatModP_;
    /** 1.0 / q_j for the overflow estimate of convertExact. */
    std::vector<long double> qInvReal_;
    /**
     * e*Q mod p_i for every overflow multiple e in [0, l], indexed
     * [i][e]: convertExact's correction, looked up rather than computed.
     */
    std::vector<std::vector<u64>> eqModP_;
};

} // namespace effact

#endif // EFFACT_RNS_BCONV_H
