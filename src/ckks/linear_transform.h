/**
 * @file
 * Homomorphic linear transform (matrix-vector product on slots) via the
 * diagonal method, split baby-step/giant-step (BSGS): with
 * d = g*n1 + r,
 *   out = sum_g rot(sum_r rot(diag_d, -g*n1) ⊙ rot(ct, r), g*n1),
 * so the n1 baby rotations of ct share one hoisted ModUp and each
 * giant group costs one more rotation. This is the building block of
 * bootstrapping's CtS/StC stages and of the MatMul1D / BlockMatMul1D
 * patterns the paper profiles in Fig. 3; `KernelBuilder::linearTransform`
 * models the same split in the IR.
 */
#ifndef EFFACT_CKKS_LINEAR_TRANSFORM_H
#define EFFACT_CKKS_LINEAR_TRANSFORM_H

#include "ckks/evaluator.h"

namespace effact {

/** A slots x slots complex matrix applied homomorphically. */
class LinearTransform
{
  public:
    /**
     * `matrix` is row-major slots x slots; diagonals whose entries are
     * all below `prune_eps` in magnitude are dropped, and a baby or giant
     * step that no kept diagonal uses is never rotated. The baby-step
     * count n1 is babyFor(slots).
     */
    LinearTransform(std::vector<cplx> matrix, size_t slots,
                    double prune_eps = 1e-12);

    /**
     * Rotation steps needed (for Galois key generation): the non-zero
     * baby steps r, then the giant steps g*n1, ascending.
     */
    const std::vector<int> &requiredRotations() const { return steps_; }

    /**
     * Applies the transform: one hoisted batch of baby rotations, one
     * multPlain per kept diagonal and one giant rotation per non-empty
     * group g != 0, all at the ciphertext's level, then one rescale
     * (consumes one level).
     */
    Ciphertext apply(const CkksEvaluator &eval, const Ciphertext &ct) const;

  private:
    /** Kept diagonal g*n1 + r, pre-rotated by -g*n1. */
    struct Term
    {
        size_t baby;            ///< index of r in baby_
        std::vector<cplx> diag;
    };

    /** The kept diagonals sharing the giant rotation by g*n1. */
    struct Group
    {
        int giant;
        std::vector<Term> terms;
    };

    std::vector<int> baby_;     ///< baby steps r in use (0 included)
    std::vector<Group> groups_; ///< non-empty groups, ascending g
    std::vector<int> steps_;    ///< requiredRotations()
};

} // namespace effact

#endif // EFFACT_CKKS_LINEAR_TRANSFORM_H
