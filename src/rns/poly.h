/**
 * @file
 * RNS residue polynomials (Fig. 1a): an element of R_Q stored as one
 * residue polynomial ("limb") per basis prime, each with N coefficients.
 * Polynomials track whether they are in coefficient or (bit-reversed)
 * evaluation/NTT order.
 */
#ifndef EFFACT_RNS_POLY_H
#define EFFACT_RNS_POLY_H

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "rns/basis.h"

namespace effact {

/** Storage domain of a polynomial's coefficients. */
enum class PolyFormat { Coeff, Eval };

/** A polynomial over an RNS basis. */
class RnsPoly
{
  public:
    /**
     * Limb storage: 64-byte-aligned so the SIMD kernel tiers may issue
     * aligned vector loads on any limb (and so a cache line never
     * straddles two limbs' first coefficients).
     */
    using LimbVec = AlignedU64Vec;

    RnsPoly() = default;

    /** Zero polynomial over `basis` in `format`. */
    RnsPoly(std::shared_ptr<const RnsBasis> basis, PolyFormat format);

    const RnsBasis &basis() const { return *basis_; }
    std::shared_ptr<const RnsBasis> basisPtr() const { return basis_; }
    PolyFormat format() const { return format_; }
    size_t degree() const { return basis_->degree(); }
    size_t limbCount() const { return limbs_.size(); }

    LimbVec &limb(size_t i) { return limbs_[i]; }
    const LimbVec &limb(size_t i) const { return limbs_[i]; }

    /** Fills every limb with uniform residues. */
    void sampleUniform(Rng &rng);

    /**
     * Sets all limbs from one signed coefficient vector (e.g. a sampled
     * error or secret): limb j gets coeffs[i] mod q_j. Coeff format.
     */
    void setFromSigned(const std::vector<i64> &coeffs);

    /** this += other (same basis, same format). */
    void addInPlace(const RnsPoly &other);

    /** this -= other. */
    void subInPlace(const RnsPoly &other);

    /** this = -this. */
    void negInPlace();

    /** Pointwise product (both operands in Eval format). */
    void mulEvalInPlace(const RnsPoly &other);

    /** Multiplies limb j by scalars[j] (any format). */
    void mulScalarPerLimb(const std::vector<u64> &scalars);

    /** Multiplies every limb by the same integer reduced per limb. */
    void mulScalarU64(u64 s);

    /** Coeff -> Eval (forward NTT on every limb). */
    void toEval();

    /** Eval -> Coeff (inverse NTT on every limb). */
    void toCoeff();

    /** Applies the Galois automorphism sigma_t in the current format. */
    RnsPoly automorph(u64 t) const;

    /** True iff every residue of every limb is zero. */
    bool isZero() const;

    /**
     * Builds a polynomial over `basis` by copying limbs
     * src.limb(limb_idx[i]) — the generic "gather limbs" used to drop
     * levels and split off key-switching digits. The caller guarantees
     * that `basis` prime i equals the source basis prime limb_idx[i].
     */
    static RnsPoly gather(const RnsPoly &src,
                          std::shared_ptr<const RnsBasis> basis,
                          const std::vector<size_t> &limb_idx);

  private:
    std::shared_ptr<const RnsBasis> basis_;
    PolyFormat format_ = PolyFormat::Coeff;
    std::vector<LimbVec> limbs_;
};

} // namespace effact

#endif // EFFACT_RNS_POLY_H
