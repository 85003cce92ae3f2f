#include "reference_bconv.h"

#include <vector>

#include "common/logging.h"

namespace effact {

Montgomery::Montgomery(u64 q) : q_(q)
{
    EFFACT_ASSERT((q & 1) == 1 && q >= 3 && q < (1ULL << 62),
                  "Montgomery modulus must be odd and < 2^62");

    // Newton iteration for q^-1 mod 2^64: each step doubles precision.
    u64 inv = q; // correct mod 2^3
    for (int i = 0; i < 6; ++i)
        inv *= 2 - q * inv;
    qInvNeg_ = ~inv + 1; // -q^-1 mod 2^64

    r1_ = static_cast<u64>((static_cast<u128>(1) << 64) % q);
    r2_ = mulMod(r1_, r1_, q);
}

namespace {

/** prod_{j' != j} q_j' mod m: the CRT cofactor qhat_j reduced mod m. */
u64
qhatMod(const RnsBasis &from, size_t j, u64 m)
{
    u64 acc = 1;
    for (size_t j2 = 0; j2 < from.size(); ++j2)
        if (j2 != j)
            acc = mulMod(acc, from.prime(j2) % m, m);
    return acc;
}

} // namespace

RnsPoly
convertMontgomeryReference(const RnsPoly &a_sm,
                           std::shared_ptr<const RnsBasis> to,
                           bool scale_n_inv)
{
    EFFACT_ASSERT(a_sm.format() == PolyFormat::Coeff,
                  "BConv operates coefficient-wise (Coeff format)");
    const RnsBasis &from = a_sm.basis();
    const size_t n = a_sm.degree();
    const size_t l = from.size();

    // MontMult(SM input, NM constant) -> NM intermediate t_j.
    std::vector<std::vector<u64>> t(l, std::vector<u64>(n));
    for (size_t j = 0; j < l; ++j) {
        const u64 qj = from.prime(j);
        const Montgomery mont(qj);
        u64 c1 = invMod(qhatMod(from, j, qj), qj);
        if (scale_n_inv)
            c1 = mulMod(c1, invMod(static_cast<u64>(n) % qj, qj), qj);
        for (size_t i = 0; i < n; ++i)
            t[j][i] = mont.mul(a_sm.limb(j)[i], c1);
    }

    // MontMult(NM intermediate, DM constant) -> SM output, accumulated.
    RnsPoly out(to, PolyFormat::Coeff);
    for (size_t p = 0; p < to->size(); ++p) {
        const u64 pi = to->prime(p);
        const Montgomery mont(pi);
        auto &dst = out.limb(p);
        for (size_t j = 0; j < l; ++j) {
            const u64 c2 = mont.toDoubleMont(qhatMod(from, j, pi));
            for (size_t i = 0; i < n; ++i)
                dst[i] = addMod(dst[i], mont.mul(t[j][i], c2), pi);
        }
    }
    return out;
}

} // namespace effact
