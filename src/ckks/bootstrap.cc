#include "ckks/bootstrap.h"

#include <algorithm>
#include <cmath>

#include "common/bitops.h"
#include "common/logging.h"

namespace effact {

namespace {

/** Chebyshev coefficients below this are treated as zero. */
constexpr double kZeroCoeff = 1e-15;

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

/**
 * Trims c's trailing zeros. A series of degree >= m is split as
 * c = q*T_K + r with K = m*2^j the largest such step <= deg: r is left
 * in c, q goes to `q`, and K is returned. A base case (deg < m) returns 0.
 */
size_t
chebySplit(std::vector<double> &c, size_t m, std::vector<double> &q)
{
    while (c.size() > 1 && std::fabs(c.back()) < kZeroCoeff)
        c.pop_back();
    const size_t deg = c.size() - 1;
    if (deg < m)
        return 0;
    size_t big_k = m;
    while (big_k * 2 <= deg)
        big_k *= 2;
    chebyDivide(c, big_k, q);
    return big_k;
}

} // namespace

const Ciphertext &
Bootstrapper::ChebyBasis::power(size_t big_k) const
{
    const size_t m = baby.size() - 1;
    if (big_k == m)
        return baby[m];
    size_t j = 0;
    for (size_t k = 2 * m; k < big_k; k *= 2)
        ++j;
    EFFACT_ASSERT(j < giant.size(), "giant step table too small (K %zu)",
                  big_k);
    return giant[j];
}

size_t
Bootstrapper::ChebyBasis::sumLevel(const std::vector<double> &coeffs) const
{
    // Baby-step levels only fall with k, so the top term is the lowest.
    return baby[std::max<size_t>(coeffs.size() - 1, 1)].level();
}

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
    ChebyBasis t;
    std::vector<Ciphertext> &baby = t.baby;
    baby.resize(m + 1);
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
    {
        Ciphertext cur = baby[m];
        size_t idx = m;
        while (idx * 2 <= deg) {
            Ciphertext sq = eval_.rescale(eval_.mult(cur, cur));
            Ciphertext doubled = eval_.add(sq, sq);
            cur = eval_.addConst(doubled, cplx(-1.0, 0));
            t.giant.push_back(cur);
            idx *= 2;
        }
    }

    // Coefficient vector a_k with the T_0 half-weight folded in.
    std::vector<double> coeffs = series.coeffs();
    if (!coeffs.empty())
        coeffs[0] *= 0.5;
    coeffs.resize(deg + 1);

    return evalChebyRec(std::move(coeffs), t, ctx_.scale());
}

size_t
Bootstrapper::chebyLevel(std::vector<double> coeffs,
                         const ChebyBasis &t) const
{
    std::vector<double> quot;
    const size_t big_k = chebySplit(coeffs, config_.babySteps, quot);
    if (big_k == 0)
        return t.sumLevel(coeffs) - 1;
    // The remainder (degree < K) never ends below the product.
    const size_t q_level = chebyLevel(std::move(quot), t);
    return std::min(q_level, t.power(big_k).level()) - 1;
}

Ciphertext
Bootstrapper::evalChebyBase(const std::vector<double> &coeffs,
                            const ChebyBasis &t, double target) const
{
    // c_0 + sum_{k>=1} c_k T_k for deg < babySteps. Each c_k is encoded
    // so that its term lands exactly on sum_scale = target * q_drop, where
    // q_drop is the prime the sum's single rescale divides by. The terms
    // accumulate into a zero ciphertext, which a series with no term past
    // c_0 rescales as it is.
    const size_t level = t.sumLevel(coeffs);
    const double sum_scale =
        target * static_cast<double>(ctx_.qBasis()->prime(level - 1));
    Ciphertext acc;
    acc.scale = sum_scale;
    acc.polys.assign(2, RnsPoly(ctx_.qBasisAt(level), PolyFormat::Eval));
    for (size_t k = 1; k < coeffs.size(); ++k) {
        if (std::fabs(coeffs[k]) >= kZeroCoeff)
            eval_.multConstAddInPlace(acc, t.baby[k], coeffs[k],
                                      sum_scale / t.baby[k].scale);
    }
    Ciphertext sum = eval_.rescale(acc);
    sum.scale = target;
    return eval_.addConst(sum, cplx(coeffs[0], 0));
}

Ciphertext
Bootstrapper::evalChebyRec(std::vector<double> coeffs, const ChebyBasis &t,
                           double target) const
{
    std::vector<double> quot;
    const size_t big_k = chebySplit(coeffs, config_.babySteps, quot);
    if (big_k == 0)
        return evalChebyBase(coeffs, t, target);

    // c = q T_K + r. rescale(q T_K) divides by q_m, the last prime at
    // the product's level, so q is evaluated at target * q_m / T_K's
    // scale and the product lands on `target`, where r is evaluated.
    const Ciphertext &t_k = t.power(big_k);
    const size_t prod_level = std::min(chebyLevel(quot, t), t_k.level());
    const double q_m =
        static_cast<double>(ctx_.qBasis()->prime(prod_level - 1));
    Ciphertext q_eval =
        evalChebyRec(std::move(quot), t, target * q_m / t_k.scale);
    Ciphertext r_eval = evalChebyRec(std::move(coeffs), t, target);
    EFFACT_ASSERT(std::min(q_eval.level(), t_k.level()) == prod_level,
                  "Chebyshev level plan missed (%zu, planned %zu)",
                  std::min(q_eval.level(), t_k.level()), prod_level);
    Ciphertext prod = eval_.rescale(eval_.mult(q_eval, t_k));
    prod.scale = target;
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
