/**
 * @file
 * RNS bases: ordered sets of NTT-friendly limb primes sharing a ring
 * degree N (Sec. II-A). A basis owns per-prime contexts (Barrett
 * reducer and NTT plan) that polynomials and converters reference.
 */
#ifndef EFFACT_RNS_BASIS_H
#define EFFACT_RNS_BASIS_H

#include <cstddef>
#include <memory>
#include <vector>

#include "math/bigint.h"
#include "math/mod_arith.h"
#include "math/ntt.h"

namespace effact {

/** Everything needed to compute in Z_q[X]/(X^N+1) for one limb prime q. */
struct LimbContext
{
    LimbContext(size_t n, u64 q_in)
        : q(q_in), barrett(q_in), ntt(n, q_in)
    {}

    u64 q;
    Barrett barrett;
    Ntt ntt;
};

/** An ordered RNS basis {q_0, ..., q_{k-1}} over a fixed ring degree. */
class RnsBasis
{
  public:
    /** Builds limb contexts for `primes` at ring degree `n`. */
    RnsBasis(size_t n, const std::vector<u64> &primes);

    /** Builds a sub-basis sharing contexts with this one. */
    std::shared_ptr<RnsBasis> prefix(size_t count) const;

    /** Sub-basis of limbs [begin, end), sharing contexts. */
    std::shared_ptr<RnsBasis> range(size_t begin, size_t end) const;

    /** Concatenation of this basis with `other` (shared contexts). */
    std::shared_ptr<RnsBasis> concat(const RnsBasis &other) const;

    size_t degree() const { return n_; }
    size_t size() const { return limbs_.size(); }

    const LimbContext &limb(size_t i) const { return *limbs_[i]; }
    u64 prime(size_t i) const { return limbs_[i]->q; }

    /** Product of all limb primes as a big integer. */
    BigInt product() const;

    /** All primes in order. */
    std::vector<u64> primes() const;

    /**
     * Garner mixed-radix CRT: reconstructs the unique x in [0, Q) with
     * x ≡ residues[i] (mod q_i). `residues` has one value per limb.
     */
    BigInt crtReconstruct(const std::vector<u64> &residues) const;

    /**
     * Centered CRT value as a double: the representative of the residues
     * in (-Q/2, Q/2], converted approximately.
     */
    double crtCenteredDouble(const std::vector<u64> &residues) const;

  private:
    RnsBasis() = default;

    /** Precomputes the Garner tables after limbs_ is final. */
    void finalize();

    size_t n_ = 0;
    std::vector<std::shared_ptr<const LimbContext>> limbs_;
    /** garnerQmod_[i][j] = q_j mod q_i for j < i. */
    std::vector<std::vector<u64>> garnerQmod_;
    /** garnerPrefixInv_[i] = (q_0 ... q_{i-1})^-1 mod q_i. */
    std::vector<u64> garnerPrefixInv_;
};

} // namespace effact

#endif // EFFACT_RNS_BASIS_H
