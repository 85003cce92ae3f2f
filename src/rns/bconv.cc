#include "rns/bconv.h"

#include "common/logging.h"
#include "math/kernels.h"

namespace effact {

BaseConverter::BaseConverter(std::shared_ptr<const RnsBasis> from,
                             std::shared_ptr<const RnsBasis> to)
    : from_(std::move(from)), to_(std::move(to))
{
    EFFACT_ASSERT(from_->degree() == to_->degree(),
                  "degree mismatch in base conversion");
    const size_t l = from_->size();
    const size_t k = to_->size();

    qhatInv_.resize(l);
    qhatModP_.assign(l, std::vector<u64>(k));

    qInvReal_.resize(l);
    eqModP_.assign(k, std::vector<u64>(l + 1, 0));
    for (size_t i = 0; i < k; ++i) {
        const u64 pi = to_->prime(i);
        u64 acc = 1;
        for (size_t j = 0; j < l; ++j)
            acc = mulMod(acc, from_->prime(j) % pi, pi);
        for (size_t e = 1; e <= l; ++e)
            eqModP_[i][e] = addMod(eqModP_[i][e - 1], acc, pi);
    }

    for (size_t j = 0; j < l; ++j) {
        const u64 qj = from_->prime(j);
        qInvReal_[j] = 1.0L / static_cast<long double>(qj);
        // qhat_j mod q_j = prod_{j' != j} q_j' mod q_j.
        u64 qhat_mod_qj = 1;
        for (size_t j2 = 0; j2 < l; ++j2) {
            if (j2 != j)
                qhat_mod_qj = mulMod(qhat_mod_qj, from_->prime(j2) % qj, qj);
        }
        qhatInv_[j] = invMod(qhat_mod_qj, qj);

        for (size_t i = 0; i < k; ++i) {
            const u64 pi = to_->prime(i);
            u64 qhat_mod_pi = 1;
            for (size_t j2 = 0; j2 < l; ++j2) {
                if (j2 != j)
                    qhat_mod_pi =
                        mulMod(qhat_mod_pi, from_->prime(j2) % pi, pi);
            }
            qhatModP_[j][i] = qhat_mod_pi;
        }
    }
}

RnsPoly
BaseConverter::convert(const RnsPoly &a) const
{
    EFFACT_ASSERT(a.format() == PolyFormat::Coeff,
                  "BConv operates coefficient-wise (Coeff format)");
    EFFACT_ASSERT(a.limbCount() == from_->size(), "basis mismatch");
    const size_t n = a.degree();
    const size_t l = from_->size();
    const size_t k = to_->size();
    const kernels::KernelTable &kern = kernels::active();

    // t_j = a_j * qhat_j^-1 mod q_j (one vector MULT per source limb),
    // into one flat aligned scratch buffer instead of l separate
    // allocations. Per-limb reducer state (the Barrett context and the
    // constant's derived form) is hoisted once per kernel call.
    AlignedU64Vec t(l * n);
    for (size_t j = 0; j < l; ++j)
        kern.mulConstV(t.data() + j * n, a.limb(j).data(), n, qhatInv_[j],
                       from_->limb(j).barrett);

    // out_p = sum_j t_j * (qhat_j mod p) — l MAC passes per target limb.
    RnsPoly out(to_, PolyFormat::Coeff);
    for (size_t p = 0; p < k; ++p) {
        const Barrett &br = to_->limb(p).barrett;
        u64 *dst = out.limb(p).data();
        for (size_t j = 0; j < l; ++j)
            kern.macConstV(dst, t.data() + j * n, n, qhatModP_[j][p], br);
    }
    return out;
}

RnsPoly
BaseConverter::convertExact(const RnsPoly &a) const
{
    EFFACT_ASSERT(a.format() == PolyFormat::Coeff,
                  "BConv operates coefficient-wise (Coeff format)");
    EFFACT_ASSERT(a.limbCount() == from_->size(), "basis mismatch");
    const size_t n = a.degree();
    const size_t l = from_->size();
    const size_t k = to_->size();
    const kernels::KernelTable &kern = kernels::active();

    AlignedU64Vec t(l * n);
    // e = round(sum v_j / q_j) per coeff; each v_j / q_j < 1, so e <= l.
    std::vector<u64> overflow(n);
    std::vector<long double> frac(n, 0.0L);
    for (size_t j = 0; j < l; ++j) {
        u64 *tj = t.data() + j * n;
        kern.mulConstV(tj, a.limb(j).data(), n, qhatInv_[j],
                       from_->limb(j).barrett);
        // The overflow estimate stays scalar long-double arithmetic
        // (not a dispatched kernel): same j-major accumulation order as
        // ever, so the rounded estimate is unchanged on every tier.
        const long double q_inv = qInvReal_[j];
        for (size_t i = 0; i < n; ++i)
            frac[i] += static_cast<long double>(tj[i]) * q_inv;
    }
    for (size_t i = 0; i < n; ++i)
        overflow[i] = static_cast<u64>(frac[i] + 0.5L);

    RnsPoly out(to_, PolyFormat::Coeff);
    for (size_t p = 0; p < k; ++p) {
        const Barrett &br = to_->limb(p).barrett;
        const u64 pi = to_->prime(p);
        u64 *dst = out.limb(p).data();
        for (size_t j = 0; j < l; ++j)
            kern.macConstV(dst, t.data() + j * n, n, qhatModP_[j][p], br);
        const u64 *eq_mod_p = eqModP_[p].data();
        for (size_t i = 0; i < n; ++i)
            dst[i] = subMod(dst[i], eq_mod_p[overflow[i]], pi);
    }
    return out;
}

} // namespace effact
