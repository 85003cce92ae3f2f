#include "ckks/bootstrap.h"

#include <algorithm>
#include <cmath>

#include "common/bitops.h"
#include "common/logging.h"

namespace effact {

namespace {

/**
 * Divides a Chebyshev-basis polynomial by T_K: c = q*T_K + r, using
 * T_j = 2*T_K*T_{j-K} - T_{2K-j} for K < j < 2K. Requires deg(c) < 2K.
 */
void
chebyDivide(std::vector<double> &c, size_t big_k, std::vector<double> &q)
{
    const size_t d = c.size() - 1;
    EFFACT_ASSERT(d < 2 * big_k, "chebyDivide requires deg < 2K");
    q.assign(d >= big_k ? d - big_k + 1 : 1, 0.0);
    for (size_t j = d; j >= big_k && j > 0; --j) {
        if (c[j] == 0.0)
            continue;
        if (j == big_k) {
            q[0] += c[j];
        } else {
            q[j - big_k] += 2.0 * c[j];
            c[2 * big_k - j] -= c[j];
        }
        c[j] = 0.0;
    }
    c.resize(big_k); // remainder has degree < K
}

} // namespace

Bootstrapper::Bootstrapper(const CkksContext &ctx,
                           const CkksEncoder &encoder,
                           const CkksEvaluator &eval,
                           const BootstrapConfig &config)
    : ctx_(ctx), encoder_(encoder), eval_(eval), config_(config)
{
    const size_t slots = ctx.slots();
    EFFACT_ASSERT(isPowerOfTwo(config.babySteps),
                  "babySteps must be a power of two");

    // Build the special-FFT matrix F numerically by probing the encoder:
    // column k of F is fftSpecial(e_k). slots x slots, row-major.
    std::vector<cplx> f_mat(slots * slots), finv_mat(slots * slots);
    for (size_t k = 0; k < slots; ++k) {
        std::vector<cplx> col(slots, cplx(0, 0));
        col[k] = cplx(1, 0);
        encoder.fftSpecial(col);
        for (size_t i = 0; i < slots; ++i)
            f_mat[i * slots + k] = col[i];
        std::vector<cplx> col2(slots, cplx(0, 0));
        col2[k] = cplx(1, 0);
        encoder.fftSpecialInv(col2);
        for (size_t i = 0; i < slots; ++i)
            finv_mat[i * slots + k] = col2[i];
    }

    for (cplx &v : finv_mat)
        v *= 0.5;
    cts_ = std::make_unique<LinearTransform>(std::move(finv_mat), slots);
    stc_ = std::make_unique<LinearTransform>(std::move(f_mat), slots);

    // EvalMod target: f(x) = q'/(2pi) sin(2pi x / q') on |x| <= (K+1) q',
    // where q' = q0 / Delta is the modulus in message units. The range
    // bound is adjusted so that 1/bound * Delta is an exact integer:
    // the EvalMod normalization constant then encodes without rounding,
    // whose error would otherwise be amplified by `bound` (the dominant
    // precision loss in an early version of this pipeline).
    const double q_prime =
        static_cast<double>(ctx.qBasis()->prime(0)) / ctx.scale();
    const double bound_raw = (config.kRange + 1.0) * q_prime;
    const double c_int = std::floor(ctx.scale() / bound_raw);
    EFFACT_ASSERT(c_int >= 1.0, "EvalMod range exceeds the scale");
    const double bound = ctx.scale() / c_int;
    sine_ = ChebyshevSeries::fit(
        [q_prime](double x) {
            return q_prime / (2.0 * M_PI) * std::sin(2.0 * M_PI * x /
                                                     q_prime);
        },
        -bound, bound, config.sineDegree);
}

std::vector<int>
Bootstrapper::requiredRotations() const
{
    std::vector<int> steps = cts_->requiredRotations();
    const std::vector<int> &stc = stc_->requiredRotations();
    steps.insert(steps.end(), stc.begin(), stc.end());
    std::sort(steps.begin(), steps.end());
    steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
    return steps;
}

Ciphertext
Bootstrapper::modRaise(const Ciphertext &ct) const
{
    EFFACT_ASSERT(ct.level() == 1,
                  "modRaise expects a level-1 ciphertext (got %zu)",
                  ct.level());
    const u64 q0 = ctx_.qBasis()->prime(0);
    const size_t n = ctx_.degree();
    auto full = ctx_.qBasisAt(ctx_.levels());

    Ciphertext out;
    out.scale = ct.scale;
    for (const auto &poly : ct.polys) {
        RnsPoly c = poly;
        c.toCoeff();
        std::vector<i64> coeffs(n);
        for (size_t i = 0; i < n; ++i)
            coeffs[i] = centered(c.limb(0)[i], q0);
        RnsPoly raised(full, PolyFormat::Coeff);
        raised.setFromSigned(coeffs);
        raised.toEval();
        out.polys.push_back(std::move(raised));
    }
    return out;
}

std::pair<Ciphertext, Ciphertext>
Bootstrapper::coeffToSlot(const Ciphertext &ct) const
{
    // w = F^-1 z / 2, so w + conj(w) = Re(F^-1 z) and
    // i (conj(w) - w) = Im(F^-1 z).
    Ciphertext w = cts_->apply(eval_, ct);
    Ciphertext w_conj = eval_.conjugate(w);
    Ciphertext lo = eval_.add(w, w_conj);
    Ciphertext hi = eval_.multByI(eval_.sub(w_conj, w));
    return {std::move(lo), std::move(hi)};
}

Ciphertext
Bootstrapper::slotToCoeff(const Ciphertext &lo, const Ciphertext &hi) const
{
    return stc_->apply(eval_, eval_.add(lo, eval_.multByI(hi)));
}

Ciphertext
Bootstrapper::evalMod(const Ciphertext &ct) const
{
    // Normalize into [-1, 1] (the series' domain), then evaluate.
    const double bound = sine_.upper();
    Ciphertext y = eval_.rescale(
        eval_.multConst(ct, cplx(1.0 / bound, 0), ctx_.scale()));
    return evalChebyshev(sine_, y);
}

Ciphertext
Bootstrapper::evalChebyshev(const ChebyshevSeries &series,
                            const Ciphertext &y) const
{
    const size_t m = config_.babySteps;
    const size_t deg = series.degree();

    // Baby steps T_1..T_m. T_{2k} = 2 T_k^2 - 1; T_{2k+1} =
    // 2 T_k T_{k+1} - T_1 (doubling via self-add keeps the scale clean).
    std::vector<Ciphertext> baby(m + 1);
    baby[1] = y;
    for (size_t k = 2; k <= m; ++k) {
        if (k % 2 == 0) {
            Ciphertext sq = eval_.rescale(eval_.mult(baby[k / 2],
                                                     baby[k / 2]));
            Ciphertext doubled = eval_.add(sq, sq);
            baby[k] = eval_.addConst(doubled, cplx(-1.0, 0));
        } else {
            Ciphertext p = eval_.rescale(eval_.mult(baby[k / 2],
                                                    baby[k / 2 + 1]));
            Ciphertext doubled = eval_.add(p, p);
            baby[k] = eval_.sub(doubled, baby[1]);
        }
    }

    // Giant steps T_{2m}, T_{4m}, ...; T_{2K} is only needed while
    // 2K <= deg (the BSGS split never divides by more than T_deg).
    std::vector<Ciphertext> giant; // giant[j] = T_{m * 2^(j+1)}
    {
        Ciphertext cur = baby[m];
        size_t idx = m;
        while (idx * 2 <= deg) {
            Ciphertext sq = eval_.rescale(eval_.mult(cur, cur));
            Ciphertext doubled = eval_.add(sq, sq);
            cur = eval_.addConst(doubled, cplx(-1.0, 0));
            giant.push_back(cur);
            idx *= 2;
        }
    }

    // Coefficient vector a_k with the T_0 half-weight folded in.
    std::vector<double> coeffs = series.coeffs();
    if (!coeffs.empty())
        coeffs[0] *= 0.5;
    coeffs.resize(deg + 1);

    return evalChebyRec(std::move(coeffs), baby, giant);
}

Ciphertext
Bootstrapper::evalChebyBase(const std::vector<double> &coeffs,
                            const std::vector<Ciphertext> &baby) const
{
    // Direct sum c_0 + sum_{k>=1} c_k T_k for deg < babySteps.
    Ciphertext acc;
    bool first = true;
    for (size_t k = 1; k < coeffs.size(); ++k) {
        if (std::fabs(coeffs[k]) < 1e-15)
            continue;
        Ciphertext term = eval_.rescale(
            eval_.multConst(baby[k], cplx(coeffs[k], 0), ctx_.scale()));
        if (first) {
            acc = std::move(term);
            first = false;
        } else {
            acc = eval_.add(acc, term);
        }
    }
    if (first) {
        // All higher coefficients vanished: encode the constant alone on
        // a fresh zero ciphertext derived from T_1.
        acc = eval_.rescale(
            eval_.multConst(baby[1], cplx(0, 0), ctx_.scale()));
    }
    return eval_.addConst(acc, cplx(coeffs.empty() ? 0.0 : coeffs[0], 0));
}

Ciphertext
Bootstrapper::evalChebyRec(std::vector<double> coeffs,
                           const std::vector<Ciphertext> &baby,
                           const std::vector<Ciphertext> &giant) const
{
    const size_t m = config_.babySteps;
    // Trim trailing zeros to find the true degree.
    while (coeffs.size() > 1 && std::fabs(coeffs.back()) < 1e-15)
        coeffs.pop_back();
    const size_t deg = coeffs.size() - 1;

    if (deg < m)
        return evalChebyBase(coeffs, baby);

    // Pick K = m * 2^j, the largest giant step <= deg.
    size_t j = 0;
    size_t big_k = m;
    while (big_k * 2 <= deg) {
        big_k *= 2;
        ++j;
    }
    EFFACT_ASSERT(j <= giant.size(),
                  "giant step table too small (deg %zu, K %zu)", deg,
                  big_k);
    // T_K is baby[m] when K == m, otherwise the (j-1)-th giant step.
    const Ciphertext &t_k = j == 0 ? baby[m] : giant[j - 1];

    std::vector<double> quot;
    chebyDivide(coeffs, big_k, quot);

    Ciphertext q_eval = evalChebyRec(std::move(quot), baby, giant);
    Ciphertext r_eval = evalChebyRec(std::move(coeffs), baby, giant);
    Ciphertext prod = eval_.rescale(eval_.mult(q_eval, t_k));
    return eval_.add(prod, r_eval);
}

Ciphertext
Bootstrapper::bootstrap(const Ciphertext &ct) const
{
    Ciphertext base = ct.level() == 1 ? ct : eval_.levelTo(ct, 1);
    Ciphertext raised = modRaise(base);
    auto [lo, hi] = coeffToSlot(raised);
    Ciphertext lo2 = evalMod(lo);
    Ciphertext hi2 = evalMod(hi);
    return slotToCoeff(lo2, hi2);
}

} // namespace effact
