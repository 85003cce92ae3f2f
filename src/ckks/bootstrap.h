/**
 * @file
 * CKKS bootstrapping (Sec. V-A of the paper): ModRaise, CoeffToSlot,
 * EvalMod (scaled-sine approximation via Chebyshev BSGS evaluation) and
 * SlotToCoeff. Fully-packed: slots = N/2. CtS is one BSGS linear
 * transform by F^-1/2 followed by one conjugation, which splits the
 * result into its real and imaginary halves; StC is one BSGS transform
 * by F of lo + i*hi. Both have the shape `buildBootstrapping` models in
 * the IR (hoisted baby steps, one key switch per giant step).
 */
#ifndef EFFACT_CKKS_BOOTSTRAP_H
#define EFFACT_CKKS_BOOTSTRAP_H

#include <memory>

#include "ckks/linear_transform.h"
#include "math/cheby.h"

namespace effact {

/** Knobs of the bootstrapping pipeline. */
struct BootstrapConfig
{
    /**
     * Chebyshev degree of the EvalMod sine. Must exceed the argument
     * span in radians, 2*pi*(kRange+1), with margin.
     */
    size_t sineDegree = 255;
    /**
     * Baby-step count of the Chebyshev BSGS evaluation in EvalMod (power
     * of two). The CtS/StC transforms derive their own split from the
     * slot count (`babyFor`).
     */
    size_t babySteps = 16;
    /**
     * Probabilistic bound K on the ModRaise overflow |I| (standard
     * practice: K=12 covers sparse ternary secrets with h <= 64).
     */
    double kRange = 12.0;
};

/** Precomputed bootstrapper bound to a context/evaluator. */
class Bootstrapper
{
  public:
    Bootstrapper(const CkksContext &ctx, const CkksEncoder &encoder,
                 const CkksEvaluator &eval,
                 const BootstrapConfig &config = {});

    /** Rotation steps the Galois key set must cover. */
    std::vector<int> requiredRotations() const;

    /** Full pipeline: level-1 ciphertext in, refreshed ciphertext out. */
    Ciphertext bootstrap(const Ciphertext &ct) const;

    // --- Individual stages (exposed for tests and benchmarks) -----------

    /** Re-interprets the level-1 ciphertext on the full chain (m + q0 I) */
    Ciphertext modRaise(const Ciphertext &ct) const;

    /** Coefficients -> slots; returns (lo, hi) halves. One level. */
    std::pair<Ciphertext, Ciphertext> coeffToSlot(const Ciphertext &ct)
        const;

    /** Approximate x mod q0 on every slot via the scaled sine. */
    Ciphertext evalMod(const Ciphertext &ct) const;

    /** Slots -> coefficients, merging the (lo, hi) halves. One level. */
    Ciphertext slotToCoeff(const Ciphertext &lo, const Ciphertext &hi)
        const;

    /**
     * Homomorphic Chebyshev-series evaluation (Han-Ki BSGS): `y` must
     * hold values in [-1, 1]; depth is about log2(degree) + 1. Each
     * base-case sum is rescaled once, and constants are encoded so that
     * every addition sees equal scales (the scale-invariant evaluation
     * of Bossuat et al., EUROCRYPT 2021): the result's scale is exactly
     * the context's.
     */
    Ciphertext evalChebyshev(const ChebyshevSeries &series,
                             const Ciphertext &y) const;

    const BootstrapConfig &config() const { return config_; }
    const ChebyshevSeries &sineSeries() const { return sine_; }

  private:
    /** T_1..T_m (baby steps) and T_{2m}, T_{4m}, ... (giant steps). */
    struct ChebyBasis
    {
        std::vector<Ciphertext> baby;  ///< baby[k] = T_k, k = 1..m
        std::vector<Ciphertext> giant; ///< giant[j] = T_{m * 2^(j+1)}

        /** T_K for K = m * 2^j. */
        const Ciphertext &power(size_t big_k) const;

        /**
         * Level of a base-case sum over `coeffs` before its rescale:
         * that of its top T_k (T_1 when only c_0 is left).
         */
        size_t sumLevel(const std::vector<double> &coeffs) const;
    };

    /**
     * Level plan: the level evalChebyRec's result for `coeffs` ends at,
     * from the coefficients alone. A base case ends one below its sum; a
     * node one below min(its quotient's level, level(T_K)).
     */
    size_t chebyLevel(std::vector<double> coeffs, const ChebyBasis &t)
        const;

    /**
     * Base case (deg < m): c_0 + sum_k c_k T_k with one rescale, at
     * scale exactly `target`.
     */
    Ciphertext evalChebyBase(const std::vector<double> &coeffs,
                             const ChebyBasis &t, double target) const;

    /** Recursive BSGS combine; the result's scale is exactly `target`. */
    Ciphertext evalChebyRec(std::vector<double> coeffs, const ChebyBasis &t,
                            double target) const;

    const CkksContext &ctx_;
    const CkksEncoder &encoder_;
    const CkksEvaluator &eval_;
    BootstrapConfig config_;

    std::unique_ptr<LinearTransform> cts_; ///< F^-1 / 2
    std::unique_ptr<LinearTransform> stc_; ///< F
    ChebyshevSeries sine_;
};

} // namespace effact

#endif // EFFACT_CKKS_BOOTSTRAP_H
