#include "reference_ckks.h"

#include "common/logging.h"

namespace effact {

namespace {

std::vector<size_t>
indexRange(size_t begin, size_t end)
{
    std::vector<size_t> idx;
    for (size_t j = begin; j < end; ++j)
        idx.push_back(j);
    return idx;
}

/** Restricts a full-basis key polynomial to Q_level ∪ P. */
RnsPoly
restrictKeyPoly(const CkksContext &ctx, const RnsPoly &kp, size_t level)
{
    std::vector<size_t> idx = indexRange(0, level);
    for (size_t j = 0; j < ctx.alpha(); ++j)
        idx.push_back(ctx.levels() + j);
    return RnsPoly::gather(kp, ctx.qpBasisAt(level), idx);
}

/** Q_l ∪ P -> Q_l with P division, with every limb in Coeff form. */
RnsPoly
modDown(const CkksContext &ctx, RnsPoly acc, size_t level)
{
    acc.toCoeff();
    RnsPoly q_part =
        RnsPoly::gather(acc, ctx.qBasisAt(level), indexRange(0, level));
    RnsPoly p_part = RnsPoly::gather(acc, ctx.pBasis(),
                                     indexRange(level, level + ctx.alpha()));

    RnsPoly conv = ctx.modDownConverter(level).convertExact(p_part);
    q_part.subInPlace(conv);

    std::vector<u64> p_inv(level);
    for (size_t j = 0; j < level; ++j)
        p_inv[j] = ctx.pInvModQ(j);
    q_part.mulScalarPerLimb(p_inv);
    q_part.toEval();
    return q_part;
}

/** Splits d into its digits and raises each to Q_l ∪ P (Eval form). */
std::vector<RnsPoly>
modUp(const CkksContext &ctx, const RnsPoly &d)
{
    const size_t level = d.limbCount();
    RnsPoly dc = d;
    dc.toCoeff();

    std::vector<RnsPoly> out;
    for (size_t digit = 0; digit < ctx.digitCount(level); ++digit) {
        auto [begin, end] = ctx.digitRange(digit, level);
        RnsPoly digit_poly = RnsPoly::gather(
            dc, ctx.qBasis()->range(begin, end), indexRange(begin, end));
        RnsPoly up = ctx.modUpConverter(digit, level).convert(digit_poly);
        up.toEval();
        out.push_back(std::move(up));
    }
    return out;
}

std::pair<RnsPoly, RnsPoly>
innerProductModDown(const CkksContext &ctx, std::vector<RnsPoly> digits,
                    const SwitchingKey &key, size_t level)
{
    EFFACT_ASSERT(digits.size() <= key.b.size(),
                  "switching key has too few digits");
    auto qp_basis = ctx.qpBasisAt(level);
    RnsPoly acc0(qp_basis, PolyFormat::Eval);
    RnsPoly acc1(qp_basis, PolyFormat::Eval);
    for (size_t digit = 0; digit < digits.size(); ++digit) {
        RnsPoly &up = digits[digit];
        RnsPoly prod_b = up;
        prod_b.mulEvalInPlace(restrictKeyPoly(ctx, key.b[digit], level));
        acc0.addInPlace(prod_b);

        up.mulEvalInPlace(restrictKeyPoly(ctx, key.a[digit], level));
        acc1.addInPlace(up);
    }
    return {modDown(ctx, std::move(acc0), level),
            modDown(ctx, std::move(acc1), level)};
}

} // namespace

Ciphertext
referenceRescale(const CkksContext &ctx, const Ciphertext &ct)
{
    const size_t level = ct.level();
    EFFACT_ASSERT(level >= 2, "cannot rescale at level %zu", level);
    const u64 q_last = ctx.qBasis()->prime(level - 1);

    Ciphertext out;
    out.scale = ct.scale / static_cast<double>(q_last);
    for (const auto &poly : ct.polys) {
        RnsPoly c = poly;
        c.toCoeff();
        RnsPoly dropped(ctx.qBasisAt(level - 1), PolyFormat::Coeff);
        const auto &last = c.limb(level - 1);
        for (size_t j = 0; j + 1 < level; ++j) {
            const u64 qj = ctx.qBasis()->prime(j);
            const u64 inv = invMod(q_last % qj, qj);
            const Barrett &br = ctx.qBasis()->limb(j).barrett;
            auto &dst = dropped.limb(j);
            const auto &src = c.limb(j);
            for (size_t i = 0; i < src.size(); ++i)
                dst[i] = br.mul(subMod(src[i], last[i] % qj, qj), inv);
        }
        dropped.toEval();
        out.polys.push_back(std::move(dropped));
    }
    return out;
}

std::pair<RnsPoly, RnsPoly>
referenceKeySwitch(const CkksContext &ctx, const RnsPoly &d,
                   const SwitchingKey &key)
{
    return innerProductModDown(ctx, modUp(ctx, d), key, d.limbCount());
}

Ciphertext
referenceMult(const CkksContext &ctx, const Ciphertext &a,
              const Ciphertext &b, const SwitchingKey &relin)
{
    EFFACT_ASSERT(a.size() == 2 && b.size() == 2 && a.level() == b.level(),
                  "referenceMult expects same-level relinearized inputs");
    // (d0, d1, d2) = (a0 b0, a0 b1 + a1 b0, a1 b1).
    RnsPoly d0 = a.polys[0];
    d0.mulEvalInPlace(b.polys[0]);
    RnsPoly d1 = a.polys[0];
    d1.mulEvalInPlace(b.polys[1]);
    RnsPoly d1b = a.polys[1];
    d1b.mulEvalInPlace(b.polys[0]);
    d1.addInPlace(d1b);
    RnsPoly d2 = a.polys[1];
    d2.mulEvalInPlace(b.polys[1]);

    auto [k0, k1] = referenceKeySwitch(ctx, d2, relin);
    d0.addInPlace(k0);
    d1.addInPlace(k1);

    Ciphertext out;
    out.scale = a.scale * b.scale;
    out.polys.push_back(std::move(d0));
    out.polys.push_back(std::move(d1));
    return out;
}

std::vector<Ciphertext>
referenceAutomorph(const CkksContext &ctx, const Ciphertext &ct,
                   const std::vector<u64> &elts, const GaloisKeys &keys)
{
    const std::vector<RnsPoly> digits = modUp(ctx, ct.polys[1]);
    std::vector<Ciphertext> out;
    for (u64 t : elts) {
        if (t == 1) {
            out.push_back(ct);
            continue;
        }
        auto it = keys.find(t);
        EFFACT_ASSERT(it != keys.end(), "missing Galois key for element %llu",
                      static_cast<unsigned long long>(t));
        std::vector<RnsPoly> rotated;
        for (const RnsPoly &digit : digits)
            rotated.push_back(digit.automorph(t));
        auto [k0, k1] = innerProductModDown(ctx, std::move(rotated),
                                            it->second, ct.level());

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
referenceMultConst(const CkksEvaluator &eval, const Ciphertext &ct,
                   cplx value, double const_scale)
{
    return eval.multPlain(ct, eval.encoder().encodeConstant(
                                  value, const_scale, ct.level()));
}

Ciphertext
referenceAddConst(const CkksEvaluator &eval, const Ciphertext &ct,
                  cplx value)
{
    return eval.addPlain(
        ct, eval.encoder().encodeConstant(value, ct.scale, ct.level()));
}

} // namespace effact
