#include "ckks/evaluator.h"

#include <cmath>

#include "common/logging.h"
#include "math/automorphism.h"

namespace effact {

CkksEvaluator::CkksEvaluator(const CkksContext &ctx,
                             const CkksEncoder &encoder,
                             const SwitchingKey *relin_key,
                             const GaloisKeys *galois_keys)
    : ctx_(ctx), encoder_(encoder), relin_key_(relin_key),
      galois_keys_(galois_keys)
{
}

void
CkksEvaluator::checkAddCompatible(const Ciphertext &a,
                                  const Ciphertext &b) const
{
    EFFACT_ASSERT(a.level() == b.level(),
                  "level mismatch in add: %zu vs %zu (use levelTo)",
                  a.level(), b.level());
    double rel = std::fabs(a.scale - b.scale) / a.scale;
    if (rel > 1e-4) {
        warn("adding ciphertexts with mismatched scales (rel err %.3g)",
             rel);
    }
}

Ciphertext
CkksEvaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    const Ciphertext *pa = &a;
    const Ciphertext *pb = &b;
    Ciphertext tmp;
    if (a.level() != b.level()) {
        if (a.level() > b.level()) {
            tmp = levelTo(a, b.level());
            pa = &tmp;
        } else {
            tmp = levelTo(b, a.level());
            pb = &tmp;
        }
    }
    checkAddCompatible(*pa, *pb);
    Ciphertext out = *pa;
    const size_t common = std::min(pa->size(), pb->size());
    for (size_t i = 0; i < common; ++i)
        out.polys[i].addInPlace(pb->polys[i]);
    for (size_t i = common; i < pb->size(); ++i)
        out.polys.push_back(pb->polys[i]);
    return out;
}

Ciphertext
CkksEvaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    return add(a, negate(b));
}

Ciphertext
CkksEvaluator::negate(const Ciphertext &ct) const
{
    Ciphertext out = ct;
    for (auto &p : out.polys)
        p.negInPlace();
    return out;
}

Ciphertext
CkksEvaluator::addPlain(const Ciphertext &ct, const Plaintext &pt) const
{
    EFFACT_ASSERT(pt.poly.limbCount() == ct.level(),
                  "plaintext level mismatch in addPlain");
    double rel = std::fabs(ct.scale - pt.scale) / ct.scale;
    if (rel > 1e-4)
        warn("addPlain scale mismatch (rel err %.3g)", rel);
    Ciphertext out = ct;
    out.polys[0].addInPlace(pt.poly);
    return out;
}

Ciphertext
CkksEvaluator::addConst(const Ciphertext &ct, cplx value) const
{
    Plaintext pt = encoder_.encodeConstant(value, ct.scale, ct.level());
    return addPlain(ct, pt);
}

Ciphertext
CkksEvaluator::multPlain(const Ciphertext &ct, const Plaintext &pt) const
{
    EFFACT_ASSERT(pt.poly.limbCount() == ct.level(),
                  "plaintext level mismatch in multPlain");
    EFFACT_ASSERT(pt.poly.format() == PolyFormat::Eval,
                  "multPlain expects Eval-format plaintext");
    Ciphertext out = ct;
    for (auto &p : out.polys)
        p.mulEvalInPlace(pt.poly);
    out.scale = ct.scale * pt.scale;
    return out;
}

Ciphertext
CkksEvaluator::multConst(const Ciphertext &ct, cplx value,
                         double const_scale) const
{
    Plaintext pt = encoder_.encodeConstant(value, const_scale, ct.level());
    return multPlain(ct, pt);
}

Ciphertext
CkksEvaluator::mult(const Ciphertext &a, const Ciphertext &b) const
{
    EFFACT_ASSERT(relin_key_ != nullptr, "mult requires a relin key");
    EFFACT_ASSERT(a.size() == 2 && b.size() == 2,
                  "mult expects relinearized inputs");
    const Ciphertext *pa = &a;
    const Ciphertext *pb = &b;
    Ciphertext tmp;
    if (a.level() != b.level()) {
        if (a.level() > b.level()) {
            tmp = levelTo(a, b.level());
            pa = &tmp;
        } else {
            tmp = levelTo(b, a.level());
            pb = &tmp;
        }
    }

    // (d0, d1, d2) = (a0 b0, a0 b1 + a1 b0, a1 b1).
    RnsPoly d0 = pa->polys[0];
    d0.mulEvalInPlace(pb->polys[0]);
    RnsPoly d1a = pa->polys[0];
    d1a.mulEvalInPlace(pb->polys[1]);
    RnsPoly d1b = pa->polys[1];
    d1b.mulEvalInPlace(pb->polys[0]);
    d1a.addInPlace(d1b);
    RnsPoly d2 = pa->polys[1];
    d2.mulEvalInPlace(pb->polys[1]);

    auto [k0, k1] = keySwitch(d2, *relin_key_);
    d0.addInPlace(k0);
    d1a.addInPlace(k1);

    Ciphertext out;
    out.scale = pa->scale * pb->scale;
    out.polys.push_back(std::move(d0));
    out.polys.push_back(std::move(d1a));
    return out;
}

Ciphertext
CkksEvaluator::square(const Ciphertext &ct) const
{
    return mult(ct, ct);
}

Ciphertext
CkksEvaluator::rescale(const Ciphertext &ct) const
{
    const size_t level = ct.level();
    EFFACT_ASSERT(level >= 2, "cannot rescale at level %zu", level);
    const u64 q_last = ctx_.qBasis()->prime(level - 1);
    auto new_basis = ctx_.qBasisAt(level - 1);

    Ciphertext out;
    out.scale = ct.scale / static_cast<double>(q_last);
    for (const auto &poly : ct.polys) {
        RnsPoly c = poly;
        c.toCoeff();
        RnsPoly dropped(new_basis, PolyFormat::Coeff);
        const auto &last = c.limb(level - 1);
        for (size_t j = 0; j + 1 < level; ++j) {
            const u64 qj = ctx_.qBasis()->prime(j);
            const u64 inv = invMod(q_last % qj, qj);
            const Barrett &br = ctx_.qBasis()->limb(j).barrett;
            auto &dst = dropped.limb(j);
            const auto &src = c.limb(j);
            for (size_t i = 0; i < src.size(); ++i) {
                u64 t = subMod(src[i], last[i] % qj, qj);
                dst[i] = br.mul(t, inv);
            }
        }
        dropped.toEval();
        out.polys.push_back(std::move(dropped));
    }
    return out;
}

Ciphertext
CkksEvaluator::levelTo(const Ciphertext &ct, size_t target_level) const
{
    EFFACT_ASSERT(target_level >= 1 && target_level <= ct.level(),
                  "levelTo target %zu invalid from %zu", target_level,
                  ct.level());
    if (target_level == ct.level())
        return ct;
    Ciphertext out;
    out.scale = ct.scale;
    for (const auto &poly : ct.polys)
        out.polys.push_back(poly.prefixLimbs(target_level));
    return out;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &ct, int steps) const
{
    return std::move(rotateHoisted(ct, {steps}).front());
}

std::vector<Ciphertext>
CkksEvaluator::rotateHoisted(const Ciphertext &ct,
                             const std::vector<int> &steps) const
{
    std::vector<u64> elts;
    elts.reserve(steps.size());
    for (int s : steps)
        elts.push_back(galoisElt(s, ctx_.degree()));
    return automorphHoisted(ct, elts);
}

Ciphertext
CkksEvaluator::conjugate(const Ciphertext &ct) const
{
    return std::move(
        automorphHoisted(ct, {galoisEltConjugate(ctx_.degree())}).front());
}

std::vector<Ciphertext>
CkksEvaluator::automorphHoisted(const Ciphertext &ct,
                                const std::vector<u64> &elts) const
{
    // sigma_t(ModUp(c1)) differs from ModUp(sigma_t(c1)) only by a
    // multiple of each digit's Q_d, which that digit's gadget factor
    // cancels; so one ModUp serves every element.
    std::vector<RnsPoly> digits;
    std::vector<Ciphertext> out;
    out.reserve(elts.size());
    for (u64 t : elts) {
        if (t == 1) {
            out.push_back(ct);
            continue;
        }
        EFFACT_ASSERT(galois_keys_ != nullptr,
                      "automorphism requires Galois keys");
        auto it = galois_keys_->find(t);
        EFFACT_ASSERT(it != galois_keys_->end(),
                      "missing Galois key for element %llu",
                      static_cast<unsigned long long>(t));
        if (digits.empty())
            digits = modUp(ct.polys[1]);

        std::vector<RnsPoly> rotated;
        rotated.reserve(digits.size());
        for (const RnsPoly &digit : digits)
            rotated.push_back(digit.automorph(t));
        auto [k0, k1] =
            innerProductModDown(std::move(rotated), it->second, ct.level());

        Ciphertext r;
        r.scale = ct.scale;
        r.polys.push_back(ct.polys[0].automorph(t));
        r.polys[0].addInPlace(k0);
        r.polys.push_back(std::move(k1));
        out.push_back(std::move(r));
    }
    return out;
}

Ciphertext
CkksEvaluator::multByI(const Ciphertext &ct) const
{
    // The encoder puts a slot's real part at coefficient k and its
    // imaginary part at k + N/2; multiplying by X^(N/2) moves c[k] to
    // k + N/2 and -c[k + N/2] to k, so slot z becomes i*z exactly.
    const size_t half = ctx_.degree() / 2;
    RnsPoly x_half(ct.polys[0].basisPtr(), PolyFormat::Coeff);
    for (size_t j = 0; j < x_half.limbCount(); ++j)
        x_half.limb(j)[half] = 1;
    x_half.toEval();
    Ciphertext out = ct;
    for (auto &p : out.polys)
        p.mulEvalInPlace(x_half);
    return out;
}

RnsPoly
CkksEvaluator::restrictKeyPoly(const RnsPoly &kp, size_t level) const
{
    const size_t levels = ctx_.levels();
    const size_t alpha = ctx_.alpha();
    std::vector<size_t> idx;
    idx.reserve(level + alpha);
    for (size_t j = 0; j < level; ++j)
        idx.push_back(j);
    for (size_t j = 0; j < alpha; ++j)
        idx.push_back(levels + j);
    return RnsPoly::gather(kp, ctx_.qpBasisAt(level), idx);
}

RnsPoly
CkksEvaluator::modDown(RnsPoly acc, size_t level) const
{
    const size_t alpha = ctx_.alpha();
    acc.toCoeff();

    std::vector<size_t> q_idx(level), p_idx(alpha);
    for (size_t j = 0; j < level; ++j)
        q_idx[j] = j;
    for (size_t j = 0; j < alpha; ++j)
        p_idx[j] = level + j;
    RnsPoly q_part = RnsPoly::gather(acc, ctx_.qBasisAt(level), q_idx);
    RnsPoly p_part = RnsPoly::gather(acc, ctx_.pBasis(), p_idx);

    RnsPoly conv = ctx_.modDownConverter(level).convertExact(p_part);
    q_part.subInPlace(conv);

    std::vector<u64> p_inv(level);
    for (size_t j = 0; j < level; ++j)
        p_inv[j] = ctx_.pInvModQ(j);
    q_part.mulScalarPerLimb(p_inv);
    q_part.toEval();
    return q_part;
}

std::vector<RnsPoly>
CkksEvaluator::modUp(const RnsPoly &d) const
{
    const size_t level = d.limbCount();
    RnsPoly dc = d;
    dc.toCoeff();

    const size_t digits = ctx_.digitCount(level);
    std::vector<RnsPoly> out;
    out.reserve(digits);
    for (size_t digit = 0; digit < digits; ++digit) {
        auto [begin, end] = ctx_.digitRange(digit, level);
        std::vector<size_t> idx;
        for (size_t j = begin; j < end; ++j)
            idx.push_back(j);
        RnsPoly digit_poly = RnsPoly::gather(
            dc, ctx_.qBasis()->range(begin, end), idx);

        RnsPoly up = ctx_.modUpConverter(digit, level).convert(digit_poly);
        up.toEval();
        out.push_back(std::move(up));
    }
    return out;
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::innerProductModDown(std::vector<RnsPoly> digits,
                                   const SwitchingKey &key,
                                   size_t level) const
{
    EFFACT_ASSERT(digits.size() <= key.b.size(),
                  "switching key has too few digits");
    auto qp_basis = ctx_.qpBasisAt(level);
    RnsPoly acc0(qp_basis, PolyFormat::Eval);
    RnsPoly acc1(qp_basis, PolyFormat::Eval);
    for (size_t digit = 0; digit < digits.size(); ++digit) {
        RnsPoly &up = digits[digit];
        RnsPoly prod_b = up;
        prod_b.mulEvalInPlace(restrictKeyPoly(key.b[digit], level));
        acc0.addInPlace(prod_b);

        up.mulEvalInPlace(restrictKeyPoly(key.a[digit], level));
        acc1.addInPlace(up);
    }

    return {modDown(std::move(acc0), level), modDown(std::move(acc1),
                                                     level)};
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(const RnsPoly &d, const SwitchingKey &key) const
{
    return innerProductModDown(modUp(d), key, d.limbCount());
}

} // namespace effact
