#include "ir/kernels.h"

#include "common/logging.h"

namespace effact {

namespace {

/** Slice of a polynomial's limbs [begin, end). */
PolyVal
slice(const PolyVal &v, size_t begin, size_t end)
{
    PolyVal out;
    out.limbs.assign(v.limbs.begin() + static_cast<long>(begin),
                     v.limbs.begin() + static_cast<long>(end));
    return out;
}

/** Placeholder immediates for structural constants (value irrelevant). */
constexpr u64 kQhatInvImm = 3;
constexpr u64 kPInvImm = 5;
constexpr u64 kRescaleInvImm = 7;

} // namespace

KernelBuilder::KernelBuilder(IrProgram &prog, const FheParams &params)
    : b_(prog), p_(params)
{
    prog.degree = params.degree();
}

IrCt
KernelBuilder::inputCiphertext(const std::string &name, size_t level)
{
    EFFACT_ASSERT(level <= p_.levels,
                  "input ciphertext %s at level %zu exceeds the %zu-prime "
                  "Q chain",
                  name.c_str(), level, p_.levels);
    int obj = b_.object(name, static_cast<int>(2 * level), false);
    IrCt ct;
    ct.level = level;
    ct.c0 = b_.load(obj, 0, level);
    ct.c1 = b_.load(obj, static_cast<int>(level), level);
    return ct;
}

int
KernelBuilder::switchingKeyObject(const std::string &name)
{
    // dnum digits x 2 polys x (L + alpha) residues, read-only.
    int residues = static_cast<int>(p_.dnum * 2 * (p_.levels + p_.alpha()));
    return b_.object(name, residues, true);
}

int
KernelBuilder::plainObject(const std::string &name, int residues)
{
    return b_.object(name, residues, true);
}

void
KernelBuilder::output(const std::string &name, const IrCt &ct)
{
    int obj = b_.object(name, static_cast<int>(2 * ct.level), false);
    b_.store(obj, 0, ct.c0);
    b_.store(obj, static_cast<int>(ct.level), ct.c1);
}

namespace {

/** Drops limbs to align a ciphertext to `target` level. */
IrCt
alignTo(const IrCt &ct, size_t target)
{
    if (ct.level == target)
        return ct;
    IrCt out;
    out.level = target;
    out.c0 = slice(ct.c0, 0, target);
    out.c1 = slice(ct.c1, 0, target);
    return out;
}

} // namespace

IrCt
KernelBuilder::hadd(const IrCt &a, const IrCt &b)
{
    const size_t level = std::min(a.level, b.level);
    IrCt aa = alignTo(a, level);
    IrCt bb = alignTo(b, level);
    return {b_.add(aa.c0, bb.c0), b_.add(aa.c1, bb.c1), level};
}

IrCt
KernelBuilder::multPlain(const IrCt &ct, int plain_obj, int plain_first)
{
    PolyVal pt = b_.load(plain_obj, plain_first,
                         static_cast<int>(ct.level));
    return {b_.mul(ct.c0, pt), b_.mul(ct.c1, pt), ct.level};
}

IrCt
KernelBuilder::multImm(const IrCt &ct, u64 imm)
{
    return {b_.mulImm(ct.c0, imm), b_.mulImm(ct.c1, imm), ct.level};
}

PolyVal
KernelBuilder::bconv(const PolyVal &v, size_t to_limbs)
{
    // t_j = v_j * (qhat_j^-1 * 1/N) — the Eq. 5 merged constant.
    PolyVal t;
    for (size_t j = 0; j < v.size(); ++j)
        t.limbs.push_back(b_.emit1(IrOp::Mul, v.limbs[j], -1,
                                   static_cast<uint32_t>(j), IrTag::BConv,
                                   kQhatInvImm + j, true));
    // out_i = sum_j t_j * (qhat_j mod p_i): a MULT then MAC-able ADDs.
    PolyVal out;
    for (size_t i = 0; i < to_limbs; ++i) {
        int acc = b_.emit1(IrOp::Mul, t.limbs[0], -1,
                           static_cast<uint32_t>(i), IrTag::BConv,
                           kQhatInvImm, true);
        for (size_t j = 1; j < v.size(); ++j) {
            int prod = b_.emit1(IrOp::Mul, t.limbs[j], -1,
                                static_cast<uint32_t>(i), IrTag::BConv,
                                kQhatInvImm + j, true);
            acc = b_.emit1(IrOp::Add, acc, prod,
                           static_cast<uint32_t>(i), IrTag::BConv);
        }
        out.limbs.push_back(acc);
    }
    return out;
}

PolyVal
KernelBuilder::modDown(const PolyVal &acc, size_t level)
{
    const size_t alpha = p_.alpha();
    EFFACT_ASSERT(acc.size() == level + alpha, "modDown limb mismatch");
    PolyVal q_part = slice(acc, 0, level);
    PolyVal p_part = slice(acc, level, level + alpha);

    PolyVal p_coeff = b_.intt(p_part);
    PolyVal conv = bconv(p_coeff, level);
    PolyVal conv_eval = b_.ntt(conv);
    PolyVal diff = b_.sub(q_part, conv_eval);
    return b_.mulImm(diff, kPInvImm);
}

PolyVal
KernelBuilder::modUpDigit(const PolyVal &dc, size_t d, size_t level)
{
    const size_t alpha = p_.alpha();
    const size_t begin = d * alpha;
    const size_t end = std::min(begin + alpha, level);
    return b_.ntt(bconv(slice(dc, begin, end), level + alpha));
}

template <typename DigitFn>
std::pair<PolyVal, PolyVal>
KernelBuilder::keyInnerProduct(size_t level, int key_obj, DigitFn digit)
{
    const size_t alpha = p_.alpha();
    const size_t ext = level + alpha;
    const size_t digits = (level + alpha - 1) / alpha;
    const int key_stride = static_cast<int>(p_.levels + alpha);

    PolyVal acc0, acc1;
    for (size_t d = 0; d < digits; ++d) {
        PolyVal up = digit(d);
        // evk digit d: b at offset (2d)*stride, a at (2d+1)*stride.
        PolyVal kb = b_.load(key_obj, static_cast<int>(2 * d) * key_stride,
                             ext);
        PolyVal ka = b_.load(key_obj,
                             static_cast<int>(2 * d + 1) * key_stride, ext);
        PolyVal pb = b_.mul(up, kb);
        PolyVal pa = b_.mul(up, ka);
        if (d == 0) {
            acc0 = pb;
            acc1 = pa;
        } else {
            acc0 = b_.add(acc0, pb);
            acc1 = b_.add(acc1, pa);
        }
    }
    return {acc0, acc1};
}

std::pair<PolyVal, PolyVal>
KernelBuilder::keySwitch(const PolyVal &d2, size_t level, int key_obj)
{
    PolyVal dc = b_.intt(d2);
    auto [acc0, acc1] = keyInnerProduct(
        level, key_obj, [&](size_t d) { return modUpDigit(dc, d, level); });
    return {modDown(acc0, level), modDown(acc1, level)};
}

IrCt
KernelBuilder::hmult(const IrCt &a, const IrCt &b, int evk)
{
    const size_t level = std::min(a.level, b.level);
    IrCt aa = alignTo(a, level);
    IrCt bb = alignTo(b, level);
    PolyVal d0 = b_.mul(aa.c0, bb.c0);
    // Sibling arguments are evaluated in an unspecified order, so the
    // emission order is spelled out: a.c1 * b.c0 first, the order every
    // pinned fingerprint records.
    PolyVal c1b0 = b_.mul(aa.c1, bb.c0);
    PolyVal c0b1 = b_.mul(aa.c0, bb.c1);
    PolyVal d1 = b_.add(c0b1, c1b0);
    PolyVal d2 = b_.mul(aa.c1, bb.c1);
    auto [k0, k1] = keySwitch(d2, level, evk);
    return {b_.add(d0, k0), b_.add(d1, k1), level};
}

IrCt
KernelBuilder::rescale(const IrCt &ct)
{
    EFFACT_ASSERT(ct.level >= 2, "cannot rescale at level %zu", ct.level);
    IrCt out;
    out.level = ct.level - 1;
    for (const PolyVal *poly : {&ct.c0, &ct.c1}) {
        // iNTT the dropped limb once, re-NTT per remaining limb, then
        // subtract and scale by q_last^-1.
        PolyVal last = slice(*poly, ct.level - 1, ct.level);
        PolyVal last_coeff = b_.intt(last);
        PolyVal kept = slice(*poly, 0, ct.level - 1);
        PolyVal broadcast;
        for (size_t j = 0; j + 1 < ct.level; ++j)
            broadcast.limbs.push_back(
                b_.emit1(IrOp::Ntt, last_coeff.limbs[0], -1,
                         static_cast<uint32_t>(j)));
        PolyVal diff = b_.sub(kept, broadcast);
        PolyVal scaled = b_.mulImm(diff, kRescaleInvImm);
        (poly == &ct.c0 ? out.c0 : out.c1) = scaled;
    }
    return out;
}

IrCt
KernelBuilder::rotate(const IrCt &ct, u64 elt, int gk)
{
    PolyVal c0r = b_.automorph(ct.c0, elt);
    PolyVal c1r = b_.automorph(ct.c1, elt);
    auto [k0, k1] = keySwitch(c1r, ct.level, gk);
    return {b_.add(c0r, k0), k1, ct.level};
}

IrCt
KernelBuilder::linearTransform(const IrCt &ct, size_t diags, size_t n1,
                               int plain_obj, int gk_obj)
{
    EFFACT_ASSERT(n1 >= 1 && diags >= 1, "invalid BSGS split");
    const size_t n2 = (diags + n1 - 1) / n1;
    const size_t level = ct.level;
    const size_t digits = (level + p_.alpha() - 1) / p_.alpha();

    // Hoisting [13]: decompose c1 once, reuse for all n1 baby rotations.
    PolyVal dc = b_.intt(ct.c1);
    std::vector<PolyVal> up_eval(digits);
    for (size_t d = 0; d < digits; ++d)
        up_eval[d] = modUpDigit(dc, d, level);

    // Baby rotations r = 0..n1-1 (r=0 is the unrotated ciphertext).
    std::vector<IrCt> rotated(n1);
    rotated[0] = ct;
    for (size_t r = 1; r < n1; ++r) {
        auto [acc0, acc1] = keyInnerProduct(level, gk_obj, [&](size_t d) {
            return b_.automorph(up_eval[d], 5 + r);
        });
        // ModDown of acc0 before the Auto of c0: the order every pinned
        // fingerprint records.
        PolyVal down0 = modDown(acc0, level);
        PolyVal rot0 = b_.automorph(ct.c0, 5 + r);
        IrCt rct;
        rct.level = level;
        rct.c0 = b_.add(rot0, down0);
        rct.c1 = modDown(acc1, level);
        rotated[r] = rct;
    }

    // Giant accumulation: sum_g rot_{g*n1}( sum_r diag ⊙ rotated[r] ).
    IrCt result;
    bool have_result = false;
    int diag_idx = 0;
    for (size_t g = 0; g < n2; ++g) {
        IrCt acc;
        bool have_acc = false;
        for (size_t r = 0; r < n1; ++r) {
            if (static_cast<size_t>(diag_idx) >= diags)
                break;
            IrCt term = multPlain(rotated[r], plain_obj,
                                  diag_idx * static_cast<int>(level));
            ++diag_idx;
            acc = have_acc ? hadd(acc, term) : term;
            have_acc = true;
        }
        if (!have_acc)
            break;
        IrCt shifted = g == 0 ? acc : rotate(acc, 5 + g, gk_obj);
        result = have_result ? hadd(result, shifted) : shifted;
        have_result = true;
    }
    return rescale(result);
}

IrCt
KernelBuilder::polyEval(const IrCt &ct, size_t degree, size_t baby, int evk)
{
    // Structural mirror of Bootstrapper::evalChebyshev: baby steps,
    // giant steps, then the BSGS recursion counted via a coefficient-
    // count recursion (constant multiplies stand in for the series).
    std::vector<IrCt> tk(baby + 1);
    tk[1] = ct;
    for (size_t k = 2; k <= baby; ++k) {
        IrCt prod = k % 2 == 0 ? hmult(tk[k / 2], tk[k / 2], evk)
                               : hmult(tk[k / 2], tk[k / 2 + 1], evk);
        IrCt scaled = rescale(prod);
        tk[k] = hadd(scaled, scaled); // 2*T_a*T_b (self-add)
    }

    std::vector<IrCt> giant;
    {
        IrCt cur = tk[baby];
        size_t idx = baby;
        while (idx * 2 <= degree) {
            IrCt sq = rescale(hmult(cur, cur, evk));
            cur = hadd(sq, sq);
            giant.push_back(cur);
            idx *= 2;
        }
    }

    // Recursion over coefficient counts.
    struct Rec
    {
        KernelBuilder &kb;
        const std::vector<IrCt> &tk;
        const std::vector<IrCt> &giant;
        size_t baby;
        int evk;

        IrCt run(size_t deg)
        {
            if (deg < baby) {
                // Base: constant-multiplied baby polynomials, summed,
                // then one rescale.
                IrCt acc = kb.multImm(tk[1], 11);
                for (size_t k = 2; k <= deg && k < tk.size(); ++k)
                    acc = kb.hadd(acc, kb.multImm(tk[k], 11 + k));
                return kb.rescale(acc);
            }
            size_t big_k = baby;
            size_t j = 0;
            while (big_k * 2 <= deg) {
                big_k *= 2;
                ++j;
            }
            const IrCt &t_k = j == 0 ? tk[baby] : giant[j - 1];
            IrCt q = run(deg - big_k);
            IrCt r = run(big_k - 1);
            IrCt prod = kb.rescale(kb.hmult(q, t_k, evk));
            return kb.hadd(prod, r);
        }
    } rec{*this, tk, giant, baby, evk};

    return rec.run(degree);
}

} // namespace effact
