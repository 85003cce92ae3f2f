#include "ckks/params.h"

#include <cmath>

#include "common/bitops.h"
#include "common/logging.h"
#include "math/primes.h"

namespace effact {

CkksContext::CkksContext(const CkksParams &params) : params_(params)
{
    n_ = size_t(1) << params.logN;
    EFFACT_ASSERT(params.levels >= 1, "need at least one level");
    EFFACT_ASSERT(params.dnum >= 1 && params.dnum <= params.levels,
                  "dnum must be in [1, levels]");
    alpha_ = ceilDiv(params.levels, params.dnum);
    scale_ = std::pow(2.0, double(params.logScale));

    // q_0 gets logQ0 bits; the remaining data primes hug the scale so that
    // rescale keeps the tracked scale close to Delta. Special primes use
    // logQ0 bits so P dominates every digit product's noise.
    auto q0 = genNttPrimes(1, params.logQ0, n_);
    std::vector<u64> exclude = q0;
    std::vector<u64> q_rest;
    if (params.levels > 1) {
        q_rest = genNttPrimes(params.levels - 1, params.logScale, n_,
                              exclude);
        exclude.insert(exclude.end(), q_rest.begin(), q_rest.end());
    }
    auto p_primes = genNttPrimes(alpha_, params.logQ0, n_, exclude);

    std::vector<u64> q_primes = q0;
    q_primes.insert(q_primes.end(), q_rest.begin(), q_rest.end());

    q_basis_ = std::make_shared<RnsBasis>(n_, q_primes);
    p_basis_ = std::make_shared<RnsBasis>(n_, p_primes);
    qp_basis_ = q_basis_->concat(*p_basis_);
    for (size_t level = 1; level < params.levels; ++level) {
        q_bases_.push_back(q_basis_->prefix(level));
        qp_bases_.push_back(q_bases_.back()->concat(*p_basis_));
    }
    q_bases_.push_back(q_basis_);
    qp_bases_.push_back(qp_basis_);

    p_mod_q_.resize(params.levels);
    p_inv_mod_q_.resize(params.levels);
    for (size_t j = 0; j < params.levels; ++j) {
        const u64 qj = q_basis_->prime(j);
        u64 acc = 1;
        for (size_t i = 0; i < alpha_; ++i)
            acc = mulMod(acc, p_basis_->prime(i) % qj, qj);
        p_mod_q_[j] = acc;
        p_inv_mod_q_[j] = invMod(acc, qj);
    }

    rescale_inv_.resize(params.levels);
    for (size_t level = 2; level <= params.levels; ++level) {
        const u64 q_last = q_basis_->prime(level - 1);
        for (size_t j = 0; j + 1 < level; ++j) {
            const u64 qj = q_basis_->prime(j);
            rescale_inv_[level - 1].push_back(invMod(q_last % qj, qj));
        }
    }

    mod_up_cache_.resize(params.levels + 1);
    for (auto &per_level : mod_up_cache_)
        per_level.resize(params.dnum);
    mod_down_cache_.resize(params.levels + 1);
}

std::shared_ptr<const RnsBasis>
CkksContext::qBasisAt(size_t level) const
{
    EFFACT_ASSERT(level >= 1 && level <= params_.levels,
                  "qBasisAt level %zu out of range", level);
    return q_bases_[level - 1];
}

std::shared_ptr<const RnsBasis>
CkksContext::qpBasisAt(size_t level) const
{
    EFFACT_ASSERT(level >= 1 && level <= params_.levels,
                  "qpBasisAt level %zu out of range", level);
    return qp_bases_[level - 1];
}

const std::vector<u64> &
CkksContext::rescaleInv(size_t level) const
{
    EFFACT_ASSERT(level >= 2 && level <= params_.levels,
                  "rescaleInv level %zu out of range", level);
    return rescale_inv_[level - 1];
}

std::pair<size_t, size_t>
CkksContext::digitRange(size_t digit, size_t level) const
{
    size_t begin = digit * alpha_;
    size_t end = std::min((digit + 1) * alpha_, level);
    return {begin, end};
}

size_t
CkksContext::digitCount(size_t level) const
{
    return ceilDiv(level, alpha_);
}

const BaseConverter &
CkksContext::modUpConverter(size_t digit, size_t level) const
{
    EFFACT_ASSERT(level <= params_.levels && digit < params_.dnum,
                  "modUpConverter(%zu, %zu) out of range", digit, level);
    auto &slot = mod_up_cache_[level][digit];
    if (!slot) {
        auto [begin, end] = digitRange(digit, level);
        EFFACT_ASSERT(begin < end, "digit %zu inactive at level %zu", digit,
                      level);
        slot = std::make_unique<BaseConverter>(q_basis_->range(begin, end),
                                               qpBasisAt(level));
    }
    return *slot;
}

const BaseConverter &
CkksContext::modDownConverter(size_t level) const
{
    EFFACT_ASSERT(level >= 1 && level <= params_.levels,
                  "modDownConverter level %zu out of range", level);
    auto &slot = mod_down_cache_[level];
    if (!slot)
        slot = std::make_unique<BaseConverter>(p_basis_, qBasisAt(level));
    return *slot;
}

} // namespace effact
