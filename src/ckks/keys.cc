#include "ckks/keys.h"

#include <cmath>

#include "common/logging.h"
#include "math/automorphism.h"

namespace effact {

KeyGenerator::KeyGenerator(const CkksContext &ctx, Rng &rng)
    : ctx_(ctx), rng_(rng)
{
}

SecretKey
KeyGenerator::genSecretKey()
{
    const size_t n = ctx_.degree();
    const int h = ctx_.params().hammingWeight;
    EFFACT_ASSERT(h > 0 && static_cast<size_t>(h) <= n,
                  "invalid Hamming weight %d", h);

    std::vector<i64> coeffs(n, 0);
    int placed = 0;
    while (placed < h) {
        size_t pos = rng_.uniform(n);
        if (coeffs[pos] != 0)
            continue;
        coeffs[pos] = (rng_.next() & 1) ? 1 : -1;
        ++placed;
    }

    SecretKey sk;
    sk.s = RnsPoly(ctx_.qpBasis(), PolyFormat::Coeff);
    sk.s.setFromSigned(coeffs);
    sk.s.toEval();
    return sk;
}

RnsPoly
KeyGenerator::sampleError(std::shared_ptr<const RnsBasis> basis)
{
    const size_t n = basis->degree();
    std::vector<i64> coeffs(n);
    for (auto &c : coeffs)
        c = static_cast<i64>(std::llround(rng_.gaussian(
            ctx_.params().sigma)));
    RnsPoly e(std::move(basis), PolyFormat::Coeff);
    e.setFromSigned(coeffs);
    e.toEval();
    return e;
}

std::vector<u64>
KeyGenerator::gadgetFactor(size_t digit) const
{
    const size_t levels = ctx_.levels();
    const size_t alpha = ctx_.alpha();
    auto [begin, end] = ctx_.digitRange(digit, levels);
    EFFACT_ASSERT(begin < end, "digit %zu empty", digit);

    const auto qp = ctx_.qpBasis();
    auto digit_basis = ctx_.qBasis()->range(begin, end);

    // c_d = [(Q/Q_d)^-1 mod Q_d] as an exact integer (Garner CRT).
    std::vector<u64> inv_residues;
    for (size_t j = begin; j < end; ++j) {
        const u64 qj = ctx_.qBasis()->prime(j);
        u64 qhat = 1; // (Q/Q_d) mod q_j
        for (size_t j2 = 0; j2 < levels; ++j2) {
            if (j2 < begin || j2 >= end)
                qhat = mulMod(qhat, ctx_.qBasis()->prime(j2) % qj, qj);
        }
        inv_residues.push_back(invMod(qhat, qj));
    }
    BigInt c_d = digit_basis->crtReconstruct(inv_residues);

    std::vector<u64> g(qp->size());
    for (size_t i = 0; i < qp->size(); ++i) {
        const u64 r = qp->prime(i);
        // P mod r (zero when r is a special prime).
        u64 p_mod = 1;
        for (size_t k = 0; k < alpha; ++k)
            p_mod = mulMod(p_mod, ctx_.pBasis()->prime(k) % r, r);
        // (Q/Q_d) mod r.
        u64 qhat_mod = 1;
        for (size_t j2 = 0; j2 < levels; ++j2) {
            if (j2 < begin || j2 >= end)
                qhat_mod = mulMod(qhat_mod,
                                  ctx_.qBasis()->prime(j2) % r, r);
        }
        g[i] = mulMod(mulMod(p_mod, qhat_mod, r), c_d.modU64(r), r);
    }
    return g;
}

SwitchingKey
KeyGenerator::genSwitchingKey(const RnsPoly &s_from, const SecretKey &sk)
{
    EFFACT_ASSERT(s_from.format() == PolyFormat::Eval,
                  "source key must be in Eval format");
    const size_t dnum = ctx_.params().dnum;
    const size_t levels = ctx_.levels();

    SwitchingKey key;
    for (size_t d = 0; d < dnum; ++d) {
        auto [begin, end] = ctx_.digitRange(d, levels);
        if (begin >= end)
            break; // digit beyond the chain (levels not divisible by dnum)
        RnsPoly a(ctx_.qpBasis(), PolyFormat::Eval);
        a.sampleUniform(rng_);
        RnsPoly e = sampleError(ctx_.qpBasis());

        // b = -a*s + e + g_d * s_from
        RnsPoly b = a;
        b.mulEvalInPlace(sk.s);
        b.negInPlace();
        b.addInPlace(e);
        RnsPoly gs = s_from;
        gs.mulScalarPerLimb(gadgetFactor(d));
        b.addInPlace(gs);

        key.a.push_back(std::move(a));
        key.b.push_back(std::move(b));
    }
    return key;
}

SwitchingKey
KeyGenerator::genRelinKey(const SecretKey &sk)
{
    RnsPoly s2 = sk.s;
    s2.mulEvalInPlace(sk.s);
    return genSwitchingKey(s2, sk);
}

SwitchingKey
KeyGenerator::genGaloisKey(const SecretKey &sk, u64 t)
{
    RnsPoly s_rot = sk.s.automorph(t);
    return genSwitchingKey(s_rot, sk);
}

GaloisKeys
KeyGenerator::genGaloisKeys(const SecretKey &sk,
                            const std::vector<int> &steps, bool conjugate)
{
    GaloisKeys keys;
    for (int step : steps) {
        // Element 1 (a multiple of the slot count) is the identity.
        u64 t = galoisElt(step, ctx_.degree());
        if (t != 1 && !keys.count(t))
            keys.emplace(t, genGaloisKey(sk, t));
    }
    if (conjugate) {
        u64 t = galoisEltConjugate(ctx_.degree());
        keys.emplace(t, genGaloisKey(sk, t));
    }
    return keys;
}

} // namespace effact
