/**
 * @file
 * Scalar oracle for the paper's merged double-Montgomery BConv (Eq. 5,
 * Sec. IV-D5).
 *
 * Runtime data is kept in single-Montgomery (SM) form, X -> X*R mod q.
 * The first BConv constant is a plain (NM) value, so MontMult(SM input,
 * NM constant) leaves an NM intermediate; the second constant is stored
 * in double-Montgomery (DM) form, X*R^2 mod p, so MontMult(NM
 * intermediate, DM constant) lands back in SM form without an explicit
 * conversion. Folding the iNTT's 1/N into the first constant removes
 * the iNTT post-scale as well. The compiler models that fold as an IR
 * rewrite (compiler/peephole.cc); the library's `BaseConverter`
 * converts plain residues, and the suites pin that both forms agree.
 *
 * Built on the public API only. Test support: never installed or
 * exported with `libeffact`.
 */
#ifndef EFFACT_TESTS_SUPPORT_REFERENCE_BCONV_H
#define EFFACT_TESTS_SUPPORT_REFERENCE_BCONV_H

#include <memory>

#include "math/mod_arith.h"
#include "rns/poly.h"

namespace effact {

/** Montgomery arithmetic for a fixed odd modulus q < 2^62, R = 2^64. */
class Montgomery
{
  public:
    explicit Montgomery(u64 q);

    /** R mod q, the SM representation of 1. */
    u64 one() const { return r1_; }

    /** Montgomery reduction: REDC(T) = T * R^-1 mod q for T < q * R. */
    u64
    reduce(u128 t) const
    {
        const u64 m = static_cast<u64>(t) * qInvNeg_;
        const u128 sum = t + static_cast<u128>(m) * q_;
        const u64 r = static_cast<u64>(sum >> 64);
        return r >= q_ ? r - q_ : r;
    }

    /** REDC(a * b) = a*b*R^-1 mod q (SM x SM -> SM, SM x NM -> NM). */
    u64 mul(u64 a, u64 b) const { return reduce(static_cast<u128>(a) * b); }

    /** NM -> SM: X -> X*R mod q. */
    u64 toMont(u64 x) const { return mul(x, r2_); }

    /** SM -> NM: X*R -> X mod q. */
    u64 fromMont(u64 x) const { return reduce(x); }

    /** NM -> DM: X -> X*R^2 mod q (the merged form's second constant). */
    u64 toDoubleMont(u64 x) const { return mul(toMont(x), r2_); }

  private:
    u64 q_ = 0;
    u64 qInvNeg_ = 0; ///< -q^-1 mod 2^64
    u64 r1_ = 0;      ///< R mod q
    u64 r2_ = 0;      ///< R^2 mod q
};

/**
 * Eq. 5 BConv of `a_sm` (Coeff format, every limb in SM form) from its
 * basis onto `to`, in the Montgomery domain throughout: one MontMult per
 * source limb by qhat_j^-1 (times N^-1 when `scale_n_inv`, for an
 * unscaled iNTT output), then one MontMult-accumulate per (source,
 * target) limb pair by qhat_j mod p_i in DM form. Output limbs are in SM
 * form; their NM values equal `BaseConverter::convert` of the NM input
 * (after the 1/N scale when `scale_n_inv`).
 */
RnsPoly convertMontgomeryReference(const RnsPoly &a_sm,
                                   std::shared_ptr<const RnsBasis> to,
                                   bool scale_n_inv);

} // namespace effact

#endif // EFFACT_TESTS_SUPPORT_REFERENCE_BCONV_H
