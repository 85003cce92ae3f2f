/**
 * @file
 * Bit-exact oracles for the CKKS evaluator's maintenance paths, in
 * their coefficient-domain forms: rescale and ModDown send every limb
 * through the INTT and back, key switching gathers each digit's key
 * limbs into a Q_l ∪ P copy, and constants are encoded as full
 * plaintexts. `CkksEvaluator` does the same arithmetic on the
 * evaluation side of the NTT; since the NTT is a linear bijection on
 * canonical residues, every result must match these u64 for u64.
 *
 * Built on the public API only. Test support: never installed or
 * exported with `libeffact`.
 */
#ifndef EFFACT_TESTS_SUPPORT_REFERENCE_CKKS_H
#define EFFACT_TESTS_SUPPORT_REFERENCE_CKKS_H

#include <utility>
#include <vector>

#include "ckks/evaluator.h"

namespace effact {

/** Divides by q_{l-1} limb by limb in coefficient form; drops a level. */
Ciphertext referenceRescale(const CkksContext &ctx, const Ciphertext &ct);

/**
 * (k0, k1) with k0 + k1*s ≈ d*s': ModUp of d's digits, an inner product
 * against key limbs gathered to Q_l ∪ P, then a coefficient-domain
 * ModDown of each accumulator.
 */
std::pair<RnsPoly, RnsPoly> referenceKeySwitch(const CkksContext &ctx,
                                               const RnsPoly &d,
                                               const SwitchingKey &key);

/** HMULT with relinearization through referenceKeySwitch (same level). */
Ciphertext referenceMult(const CkksContext &ctx, const Ciphertext &a,
                         const Ciphertext &b, const SwitchingKey &relin);

/**
 * sigma_t(ct) for every Galois element t of `elts`, with one ModUp of c1
 * shared by all of them (the hoisted form of rotate, rotateHoisted and
 * conjugate); t == 1 returns ct.
 */
std::vector<Ciphertext> referenceAutomorph(const CkksContext &ctx,
                                           const Ciphertext &ct,
                                           const std::vector<u64> &elts,
                                           const GaloisKeys &keys);

/** ct * value, with value encoded as a plaintext at `const_scale`. */
Ciphertext referenceMultConst(const CkksEvaluator &eval,
                              const Ciphertext &ct, cplx value,
                              double const_scale);

/** ct + value, with value encoded as a plaintext at ct's scale. */
Ciphertext referenceAddConst(const CkksEvaluator &eval, const Ciphertext &ct,
                             cplx value);

} // namespace effact

#endif // EFFACT_TESTS_SUPPORT_REFERENCE_CKKS_H
