#include "rns/poly.h"

#include "common/logging.h"
#include "math/automorphism.h"
#include "math/kernels.h"

namespace effact {

RnsPoly::RnsPoly(std::shared_ptr<const RnsBasis> basis, PolyFormat format)
    : basis_(std::move(basis)), format_(format)
{
    limbs_.assign(basis_->size(), LimbVec(basis_->degree(), 0));
}

void
RnsPoly::sampleUniform(Rng &rng)
{
    for (size_t j = 0; j < limbs_.size(); ++j) {
        const u64 q = basis_->prime(j);
        for (auto &c : limbs_[j])
            c = rng.uniform(q);
    }
}

void
RnsPoly::setFromSigned(const std::vector<i64> &coeffs)
{
    EFFACT_ASSERT(coeffs.size() == degree(), "coefficient count mismatch");
    format_ = PolyFormat::Coeff;
    for (size_t j = 0; j < limbs_.size(); ++j) {
        const u64 q = basis_->prime(j);
        for (size_t i = 0; i < coeffs.size(); ++i)
            limbs_[j][i] = reduceSigned(coeffs[i], q);
    }
}

void
RnsPoly::addInPlace(const RnsPoly &other)
{
    EFFACT_ASSERT(format_ == other.format_ &&
                      limbs_.size() == other.limbs_.size(),
                  "operand mismatch in poly add");
    const kernels::KernelTable &k = kernels::active();
    for (size_t j = 0; j < limbs_.size(); ++j) {
        auto &lhs = limbs_[j];
        k.addModV(lhs.data(), lhs.data(), other.limbs_[j].data(),
                  lhs.size(), basis_->prime(j));
    }
}

void
RnsPoly::subInPlace(const RnsPoly &other)
{
    EFFACT_ASSERT(format_ == other.format_ &&
                      limbs_.size() == other.limbs_.size(),
                  "operand mismatch in poly sub");
    const kernels::KernelTable &k = kernels::active();
    for (size_t j = 0; j < limbs_.size(); ++j) {
        auto &lhs = limbs_[j];
        k.subModV(lhs.data(), lhs.data(), other.limbs_[j].data(),
                  lhs.size(), basis_->prime(j));
    }
}

void
RnsPoly::negInPlace()
{
    const kernels::KernelTable &k = kernels::active();
    for (size_t j = 0; j < limbs_.size(); ++j) {
        auto &lhs = limbs_[j];
        k.negModV(lhs.data(), lhs.data(), lhs.size(), basis_->prime(j));
    }
}

void
RnsPoly::mulEvalInPlace(const RnsPoly &other)
{
    EFFACT_ASSERT(format_ == PolyFormat::Eval &&
                      other.format_ == PolyFormat::Eval,
                  "pointwise mul requires Eval format");
    EFFACT_ASSERT(limbs_.size() == other.limbs_.size(),
                  "operand mismatch in poly mul");
    const kernels::KernelTable &k = kernels::active();
    for (size_t j = 0; j < limbs_.size(); ++j) {
        auto &lhs = limbs_[j];
        k.mulModV(lhs.data(), lhs.data(), other.limbs_[j].data(),
                  lhs.size(), basis_->limb(j).barrett);
    }
}

void
RnsPoly::mulScalarPerLimb(const std::vector<u64> &scalars)
{
    EFFACT_ASSERT(scalars.size() == limbs_.size(), "scalar count mismatch");
    const kernels::KernelTable &k = kernels::active();
    for (size_t j = 0; j < limbs_.size(); ++j) {
        auto &lhs = limbs_[j];
        k.mulConstV(lhs.data(), lhs.data(), lhs.size(), scalars[j],
                    basis_->limb(j).barrett);
    }
}

void
RnsPoly::mulScalarU64(u64 s)
{
    const kernels::KernelTable &k = kernels::active();
    for (size_t j = 0; j < limbs_.size(); ++j) {
        auto &lhs = limbs_[j];
        k.mulConstV(lhs.data(), lhs.data(), lhs.size(),
                    s % basis_->prime(j), basis_->limb(j).barrett);
    }
}

void
RnsPoly::toEval()
{
    if (format_ == PolyFormat::Eval)
        return;
    for (size_t j = 0; j < limbs_.size(); ++j)
        basis_->limb(j).ntt.forward(limbs_[j].data());
    format_ = PolyFormat::Eval;
}

void
RnsPoly::toCoeff()
{
    if (format_ == PolyFormat::Coeff)
        return;
    for (size_t j = 0; j < limbs_.size(); ++j)
        basis_->limb(j).ntt.backward(limbs_[j].data());
    format_ = PolyFormat::Coeff;
}

RnsPoly
RnsPoly::automorph(u64 t) const
{
    RnsPoly out(basis_, format_);
    if (format_ == PolyFormat::Coeff) {
        for (size_t j = 0; j < limbs_.size(); ++j) {
            applyAutoCoeff(limbs_[j].data(), out.limbs_[j].data(), degree(),
                           t, basis_->prime(j));
        }
    } else {
        AutoPermutation perm(degree(), t);
        for (size_t j = 0; j < limbs_.size(); ++j)
            perm.apply(limbs_[j].data(), out.limbs_[j].data());
    }
    return out;
}

RnsPoly
RnsPoly::gather(const RnsPoly &src, std::shared_ptr<const RnsBasis> basis,
                const std::vector<size_t> &limb_idx)
{
    EFFACT_ASSERT(basis->size() == limb_idx.size(),
                  "gather: index count does not match basis size");
    RnsPoly out(basis, src.format());
    for (size_t i = 0; i < limb_idx.size(); ++i) {
        EFFACT_ASSERT(limb_idx[i] < src.limbCount(),
                      "gather: limb index out of range");
        EFFACT_ASSERT(basis->prime(i) ==
                          src.basis().prime(limb_idx[i]),
                      "gather: prime mismatch at position %zu", i);
        out.limbs_[i] = src.limbs_[limb_idx[i]];
    }
    return out;
}

bool
RnsPoly::isZero() const
{
    for (const auto &limb : limbs_)
        for (u64 c : limb)
            if (c != 0)
                return false;
    return true;
}

} // namespace effact
