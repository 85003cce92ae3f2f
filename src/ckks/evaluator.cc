#include "ckks/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "math/automorphism.h"
#include "math/kernels.h"

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
    if (value.imag() != 0.0)
        return addPlain(ct,
                        encoder_.encodeConstant(value, ct.scale, ct.level()));
    // A real constant is the same residue at every evaluation point.
    const std::vector<u64> c =
        encoder_.encodeRealConstant(value.real(), ct.scale, ct.level());
    Ciphertext out = ct;
    RnsPoly &c0 = out.polys[0];
    for (size_t j = 0; j < c0.limbCount(); ++j) {
        const u64 q = c0.basis().prime(j);
        for (u64 &x : c0.limb(j))
            x = addMod(x, c[j], q);
    }
    return out;
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
    if (value.imag() != 0.0)
        return multPlain(ct, encoder_.encodeConstant(value, const_scale,
                                                     ct.level()));
    const std::vector<u64> c =
        encoder_.encodeRealConstant(value.real(), const_scale, ct.level());
    Ciphertext out = ct;
    for (auto &p : out.polys)
        p.mulScalarPerLimb(c);
    out.scale = ct.scale * const_scale;
    return out;
}

void
CkksEvaluator::multConstAddInPlace(Ciphertext &acc, const Ciphertext &ct,
                                   double value, double const_scale) const
{
    const size_t level = acc.level();
    EFFACT_ASSERT(ct.level() >= level && ct.size() == acc.size(),
                  "multConstAddInPlace needs ct at or above acc's level");
    const double rel =
        std::fabs(ct.scale * const_scale - acc.scale) / acc.scale;
    if (rel > 1e-4)
        warn("multConstAddInPlace scale mismatch (rel err %.3g)", rel);
    const std::vector<u64> c =
        encoder_.encodeRealConstant(value, const_scale, level);
    const kernels::KernelTable &k = kernels::active();
    for (size_t i = 0; i < acc.size(); ++i) {
        RnsPoly &dst = acc.polys[i];
        for (size_t j = 0; j < level; ++j)
            k.macConstV(dst.limb(j).data(), ct.polys[i].limb(j).data(),
                        ctx_.degree(), c[j], dst.basis().limb(j).barrett);
    }
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
    const RnsBasis &q = *ctx_.qBasis();
    const std::vector<u64> &inv = ctx_.rescaleInv(level);
    const size_t n = ctx_.degree();
    const kernels::KernelTable &k = kernels::active();

    // c_j <- (c_j - [c_last]_{q_j}) * q_last^-1 on the evaluation side of
    // the NTT: only the dropped limb goes through the INTT, and its
    // reduction into each q_j comes back through q_j's NTT.
    Ciphertext out;
    out.scale = ct.scale / static_cast<double>(q.prime(level - 1));
    AlignedU64Vec last(n), t(n);
    for (const auto &poly : ct.polys) {
        EFFACT_ASSERT(poly.format() == PolyFormat::Eval,
                      "rescale expects Eval-format polys");
        std::copy(poly.limb(level - 1).begin(), poly.limb(level - 1).end(),
                  last.begin());
        q.limb(level - 1).ntt.backward(last.data());
        RnsPoly dropped(ctx_.qBasisAt(level - 1), PolyFormat::Eval);
        for (size_t j = 0; j + 1 < level; ++j) {
            const LimbContext &lc = q.limb(j);
            for (size_t i = 0; i < n; ++i)
                t[i] = lc.barrett.reduce(last[i]);
            lc.ntt.forward(t.data());
            u64 *dst = dropped.limb(j).data();
            k.subModV(dst, poly.limb(j).data(), t.data(), n, lc.q);
            k.mulConstV(dst, dst, n, inv[j], lc.barrett);
        }
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
    const auto basis = ctx_.qBasisAt(target_level);
    std::vector<size_t> idx(target_level);
    for (size_t j = 0; j < target_level; ++j)
        idx[j] = j;
    Ciphertext out;
    out.scale = ct.scale;
    for (const auto &poly : ct.polys)
        out.polys.push_back(RnsPoly::gather(poly, basis, idx));
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
        auto [k0, k1] = innerProductModDown(rotated, it->second, ct.level());

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
CkksEvaluator::modDown(const RnsPoly &acc, size_t level) const
{
    // (acc_Q - NTT(BConv_{P->Q_l}(INTT(acc_P)))) * P^-1: only the alpha
    // P limbs leave the evaluation domain.
    const size_t alpha = ctx_.alpha();
    std::vector<size_t> p_idx(alpha);
    for (size_t j = 0; j < alpha; ++j)
        p_idx[j] = level + j;
    RnsPoly p_part = RnsPoly::gather(acc, ctx_.pBasis(), p_idx);
    p_part.toCoeff();

    RnsPoly out = ctx_.modDownConverter(level).convertExact(p_part);
    out.toEval();
    const size_t n = ctx_.degree();
    const kernels::KernelTable &k = kernels::active();
    for (size_t j = 0; j < level; ++j) {
        const LimbContext &lc = out.basis().limb(j);
        u64 *dst = out.limb(j).data();
        k.subModV(dst, acc.limb(j).data(), dst, n, lc.q);
        k.mulConstV(dst, dst, n, ctx_.pInvModQ(j), lc.barrett);
    }
    return out;
}

std::vector<RnsPoly>
CkksEvaluator::modUp(const RnsPoly &d) const
{
    const size_t level = d.limbCount();
    const size_t digits = ctx_.digitCount(level);
    std::vector<RnsPoly> out;
    out.reserve(digits);
    std::vector<size_t> idx;
    for (size_t digit = 0; digit < digits; ++digit) {
        const BaseConverter &conv = ctx_.modUpConverter(digit, level);
        auto [begin, end] = ctx_.digitRange(digit, level);
        idx.clear();
        for (size_t j = begin; j < end; ++j)
            idx.push_back(j);
        RnsPoly digit_poly = RnsPoly::gather(d, conv.fromPtr(), idx);
        digit_poly.toCoeff();

        RnsPoly up = conv.convert(digit_poly);
        up.toEval();
        out.push_back(std::move(up));
    }
    return out;
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::innerProductModDown(const std::vector<RnsPoly> &digits,
                                   const SwitchingKey &key,
                                   size_t level) const
{
    EFFACT_ASSERT(digits.size() <= key.b.size(),
                  "switching key has too few digits");
    const size_t levels = ctx_.levels();
    const size_t n = ctx_.degree();
    const kernels::KernelTable &k = kernels::active();
    auto qp_basis = ctx_.qpBasisAt(level);
    RnsPoly acc0(qp_basis, PolyFormat::Eval);
    RnsPoly acc1(qp_basis, PolyFormat::Eval);
    AlignedU64Vec prod(n);
    for (size_t digit = 0; digit < digits.size(); ++digit) {
        const RnsPoly &up = digits[digit];
        const RnsPoly &kb = key.b[digit];
        const RnsPoly &ka = key.a[digit];
        EFFACT_ASSERT(kb.limbCount() == levels + ctx_.alpha() &&
                          ka.limbCount() == kb.limbCount(),
                      "switching key is not over the full QP basis");
        for (size_t j = 0; j < qp_basis->size(); ++j) {
            // Q_l ∪ P limb j is limb kj of the keys' full Q ∪ P basis.
            const size_t kj = j < level ? j : levels + (j - level);
            const LimbContext &lc = qp_basis->limb(j);
            k.mulModV(prod.data(), up.limb(j).data(), kb.limb(kj).data(), n,
                      lc.barrett);
            k.addModV(acc0.limb(j).data(), acc0.limb(j).data(), prod.data(),
                      n, lc.q);
            k.mulModV(prod.data(), up.limb(j).data(), ka.limb(kj).data(), n,
                      lc.barrett);
            k.addModV(acc1.limb(j).data(), acc1.limb(j).data(), prod.data(),
                      n, lc.q);
        }
    }

    return {modDown(acc0, level), modDown(acc1, level)};
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(const RnsPoly &d, const SwitchingKey &key) const
{
    return innerProductModDown(modUp(d), key, d.limbCount());
}

} // namespace effact
