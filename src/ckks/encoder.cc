#include "ckks/encoder.h"

#include <cmath>

#include "common/bitops.h"
#include "common/logging.h"

namespace effact {

namespace {

/** In-place bit-reversal permutation of a complex vector. */
void
arrayBitReverse(std::vector<cplx> &vals)
{
    const size_t size = vals.size();
    for (size_t i = 1, j = 0; i < size; ++i) {
        size_t bit = size >> 1;
        for (; j >= bit; bit >>= 1)
            j -= bit;
        j += bit;
        if (i < j)
            std::swap(vals[i], vals[j]);
    }
}

/** llround(x) as an i64; |x| must be below 2^63, where it is defined. */
i64
roundScaled(double x)
{
    EFFACT_ASSERT(std::fabs(x) < 0x1p63,
                  "scaled value %g does not fit in an int64", x);
    return static_cast<i64>(std::llround(x));
}

} // namespace

CkksEncoder::CkksEncoder(const CkksContext &ctx) : ctx_(ctx)
{
    const size_t n = ctx.degree();
    const size_t m = 2 * n;
    rotGroup_.resize(n / 2);
    u64 five = 1;
    for (size_t i = 0; i < n / 2; ++i) {
        rotGroup_[i] = five;
        five = (five * 5) % m;
    }
    ksiPows_.resize(m + 1);
    for (size_t k = 0; k <= m; ++k) {
        double angle = 2.0 * M_PI * double(k) / double(m);
        ksiPows_[k] = cplx(std::cos(angle), std::sin(angle));
    }
}

void
CkksEncoder::fftSpecial(std::vector<cplx> &vals) const
{
    const size_t size = vals.size();
    const size_t m = 2 * ctx_.degree();
    EFFACT_ASSERT(isPowerOfTwo(size), "slot count must be a power of two");
    arrayBitReverse(vals);
    for (size_t len = 2; len <= size; len <<= 1) {
        for (size_t i = 0; i < size; i += len) {
            const size_t lenh = len >> 1;
            const size_t lenq = len << 2;
            for (size_t j = 0; j < lenh; ++j) {
                size_t idx = (rotGroup_[j] % lenq) * m / lenq;
                cplx u = vals[i + j];
                cplx v = vals[i + j + lenh] * ksiPows_[idx];
                vals[i + j] = u + v;
                vals[i + j + lenh] = u - v;
            }
        }
    }
}

void
CkksEncoder::fftSpecialInv(std::vector<cplx> &vals) const
{
    const size_t size = vals.size();
    const size_t m = 2 * ctx_.degree();
    EFFACT_ASSERT(isPowerOfTwo(size), "slot count must be a power of two");
    for (size_t len = size; len >= 2; len >>= 1) {
        for (size_t i = 0; i < size; i += len) {
            const size_t lenh = len >> 1;
            const size_t lenq = len << 2;
            for (size_t j = 0; j < lenh; ++j) {
                size_t idx = (lenq - (rotGroup_[j] % lenq)) * m / lenq;
                cplx u = vals[i + j] + vals[i + j + lenh];
                cplx v = (vals[i + j] - vals[i + j + lenh]) * ksiPows_[idx];
                vals[i + j] = u;
                vals[i + j + lenh] = v;
            }
        }
    }
    arrayBitReverse(vals);
    for (auto &v : vals)
        v /= double(size);
}

Plaintext
CkksEncoder::encode(const std::vector<cplx> &msg, double scale,
                    size_t level) const
{
    const size_t n = ctx_.degree();
    const size_t nh = n / 2;
    const size_t slots = msg.size();
    EFFACT_ASSERT(slots >= 1 && slots <= nh && isPowerOfTwo(slots),
                  "slot count %zu invalid for N=%zu", slots, n);

    std::vector<cplx> vals = msg;
    fftSpecialInv(vals);

    const size_t gap = nh / slots;
    std::vector<i64> coeffs(n, 0);
    for (size_t i = 0; i < slots; ++i) {
        coeffs[i * gap] = roundScaled(vals[i].real() * scale);
        coeffs[i * gap + nh] = roundScaled(vals[i].imag() * scale);
    }

    Plaintext pt;
    pt.scale = scale;
    pt.poly = RnsPoly(ctx_.qBasisAt(level), PolyFormat::Coeff);
    pt.poly.setFromSigned(coeffs);
    pt.poly.toEval();
    return pt;
}

Plaintext
CkksEncoder::encodeConstant(cplx value, double scale, size_t level) const
{
    // A constant in every slot is gap-replicated; encoding a single-slot
    // message achieves this with one coefficient pair.
    std::vector<cplx> one_slot(1, value);
    return encode(one_slot, scale, level);
}

std::vector<u64>
CkksEncoder::encodeRealConstant(double value, double scale,
                                size_t level) const
{
    const i64 c = roundScaled(value * scale);
    const RnsBasis &basis = *ctx_.qBasisAt(level);
    std::vector<u64> residues(level);
    for (size_t j = 0; j < level; ++j)
        residues[j] = reduceSigned(c, basis.prime(j));
    return residues;
}

std::vector<cplx>
CkksEncoder::decode(const Plaintext &pt, size_t slots) const
{
    const size_t n = ctx_.degree();
    const size_t nh = n / 2;
    EFFACT_ASSERT(slots >= 1 && slots <= nh && isPowerOfTwo(slots),
                  "slot count %zu invalid for N=%zu", slots, n);

    RnsPoly poly = pt.poly;
    poly.toCoeff();
    const RnsBasis &basis = poly.basis();
    const size_t gap = nh / slots;

    std::vector<cplx> vals(slots);
    std::vector<u64> residues(poly.limbCount());
    for (size_t i = 0; i < slots; ++i) {
        for (size_t j = 0; j < poly.limbCount(); ++j)
            residues[j] = poly.limb(j)[i * gap];
        double re = basis.crtCenteredDouble(residues) / pt.scale;
        for (size_t j = 0; j < poly.limbCount(); ++j)
            residues[j] = poly.limb(j)[i * gap + nh];
        double im = basis.crtCenteredDouble(residues) / pt.scale;
        vals[i] = cplx(re, im);
    }
    fftSpecial(vals);
    return vals;
}

} // namespace effact
