/**
 * @file
 * CKKS homomorphic evaluator: HADD/HMULT/HROT (Fig. 1b level 2),
 * rescale, and dnum-digit key switching with ModUp/ModDown (Sec. II-C).
 */
#ifndef EFFACT_CKKS_EVALUATOR_H
#define EFFACT_CKKS_EVALUATOR_H

#include "ckks/encoder.h"
#include "ckks/keys.h"

namespace effact {

/** Evaluator bound to a context plus optional relin/Galois keys. */
class CkksEvaluator
{
  public:
    CkksEvaluator(const CkksContext &ctx, const CkksEncoder &encoder,
                  const SwitchingKey *relin_key = nullptr,
                  const GaloisKeys *galois_keys = nullptr);

    // --- Arithmetic -----------------------------------------------------

    /** Homomorphic addition (levels are aligned automatically). */
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;

    /** Homomorphic subtraction. */
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;

    /** ct + encoded plaintext (same level; scale must match). */
    Ciphertext addPlain(const Ciphertext &ct, const Plaintext &pt) const;

    /** ct + constant in every slot (encoded at ct's scale). */
    Ciphertext addConst(const Ciphertext &ct, cplx value) const;

    /** ct * encoded plaintext; scale multiplies; no rescale. */
    Ciphertext multPlain(const Ciphertext &ct, const Plaintext &pt) const;

    /** ct * constant; the constant is encoded at `const_scale`. */
    Ciphertext multConst(const Ciphertext &ct, cplx value,
                         double const_scale) const;

    /**
     * acc += ct * value, the real constant encoded at `const_scale` as
     * multConst encodes it, on acc's level (ct may sit higher): one MAC
     * per residue and no intermediate ciphertext, bit-identical to
     * add(acc, multConst(levelTo(ct, acc.level()), value, const_scale)).
     * acc keeps its scale, which the product's must match.
     */
    void multConstAddInPlace(Ciphertext &acc, const Ciphertext &ct,
                             double value, double const_scale) const;

    /** Negation. */
    Ciphertext negate(const Ciphertext &ct) const;

    /** HMULT with relinearization; scale multiplies; no rescale. */
    Ciphertext mult(const Ciphertext &a, const Ciphertext &b) const;

    /** Square with relinearization. */
    Ciphertext square(const Ciphertext &ct) const;

    // --- Maintenance (Fig. 1b level 1.5) --------------------------------

    /**
     * Divides by the last chain prime; drops one level. Only the dropped
     * limb leaves the evaluation domain (Eval-format input required).
     */
    Ciphertext rescale(const Ciphertext &ct) const;

    /** Drops limbs without dividing (level alignment). */
    Ciphertext levelTo(const Ciphertext &ct, size_t target_level) const;

    /**
     * HROT by `steps` slots (uses the matching Galois key). A multiple
     * of the slot count is the identity and needs no key.
     */
    Ciphertext rotate(const Ciphertext &ct, int steps) const;

    /**
     * HROT by every entry of `steps`, sharing one ModUp of c1 between
     * them (hoisting): returns one ciphertext per step, each bit-for-bit
     * rotate(ct, step).
     */
    std::vector<Ciphertext> rotateHoisted(const Ciphertext &ct,
                                          const std::vector<int> &steps)
        const;

    /** Complex conjugation of every slot. */
    Ciphertext conjugate(const Ciphertext &ct) const;

    /** Multiplies every slot by i; exact, and uses no level and no key. */
    Ciphertext multByI(const Ciphertext &ct) const;

    /**
     * Key switching: given d (a polynomial decryptable under some s'),
     * returns (k0, k1) with k0 + k1*s ≈ d*s' (all over Q_level).
     */
    std::pair<RnsPoly, RnsPoly> keySwitch(const RnsPoly &d,
                                          const SwitchingKey &key) const;

    const CkksContext &context() const { return ctx_; }
    const CkksEncoder &encoder() const { return encoder_; }

  private:
    /**
     * sigma_t(ct) for every Galois element t of `elts`, key-switched back
     * to s. One ModUp of c1 serves every t != 1; t == 1 returns ct.
     */
    std::vector<Ciphertext> automorphHoisted(const Ciphertext &ct,
                                             const std::vector<u64> &elts)
        const;

    /**
     * ModUp: splits d (Q_level) into its dnum digits and raises each to
     * Q_level ∪ P, in Eval format.
     */
    std::vector<RnsPoly> modUp(const RnsPoly &d) const;

    /**
     * The key-switch tail: (sum_d digit_d * b_d, sum_d digit_d * a_d)
     * over Q_level ∪ P, each brought back to Q_level by ModDown. Key
     * limbs are read in place from the keys' full Q ∪ P basis.
     */
    std::pair<RnsPoly, RnsPoly> innerProductModDown(
        const std::vector<RnsPoly> &digits, const SwitchingKey &key,
        size_t level) const;

    /**
     * ModDown: Q_l ∪ P -> Q_l with P division (exact converter); only
     * the alpha P limbs leave the evaluation domain.
     */
    RnsPoly modDown(const RnsPoly &acc, size_t level) const;

    /** Aligns b's level/scale to a's for addition-like ops. */
    void checkAddCompatible(const Ciphertext &a, const Ciphertext &b) const;

    const CkksContext &ctx_;
    const CkksEncoder &encoder_;
    const SwitchingKey *relin_key_;
    const GaloisKeys *galois_keys_;
};

} // namespace effact

#endif // EFFACT_CKKS_EVALUATOR_H
