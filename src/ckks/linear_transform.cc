#include "ckks/linear_transform.h"

#include "common/bitops.h"
#include "common/logging.h"

namespace effact {

LinearTransform::LinearTransform(std::vector<cplx> matrix, size_t slots,
                                 double prune_eps)
{
    EFFACT_ASSERT(matrix.size() == slots * slots,
                  "matrix must be slots x slots");
    // Entry i of diagonal d is matrix[i][i + d].
    auto entry = [&](size_t i, size_t d) {
        return matrix[i * slots + (i + d) % slots];
    };
    const size_t n1 = babyFor(slots);
    std::vector<bool> kept(slots, false);
    std::vector<bool> baby_used(n1, false);
    for (size_t d = 0; d < slots; ++d) {
        for (size_t i = 0; i < slots && !kept[d]; ++i)
            kept[d] = std::abs(entry(i, d)) > prune_eps;
        if (kept[d])
            baby_used[d % n1] = true;
    }
    std::vector<size_t> baby_index(n1);
    for (size_t r = 0; r < n1; ++r) {
        if (!baby_used[r])
            continue;
        baby_index[r] = baby_.size();
        baby_.push_back(static_cast<int>(r));
        if (r != 0)
            steps_.push_back(static_cast<int>(r));
    }

    for (size_t giant = 0; giant < slots; giant += n1) {
        Group group{static_cast<int>(giant), {}};
        for (size_t r = 0; r < n1 && giant + r < slots; ++r) {
            const size_t d = giant + r;
            if (!kept[d])
                continue;
            // rot(diag_d, -giant): entry i is diag_d[i - giant].
            std::vector<cplx> diag(slots);
            for (size_t i = 0; i < slots; ++i)
                diag[i] = entry((i + slots - giant) % slots, d);
            group.terms.push_back({baby_index[r], std::move(diag)});
        }
        if (group.terms.empty())
            continue;
        if (giant != 0)
            steps_.push_back(group.giant);
        groups_.push_back(std::move(group));
    }
}

Ciphertext
LinearTransform::apply(const CkksEvaluator &eval, const Ciphertext &ct)
    const
{
    EFFACT_ASSERT(!groups_.empty(), "empty linear transform");
    const CkksEncoder &encoder = eval.encoder();
    const double scale = eval.context().scale();
    auto accumulate = [&](Ciphertext &acc, Ciphertext term) {
        acc = acc.polys.empty() ? std::move(term) : eval.add(acc, term);
    };

    const std::vector<Ciphertext> baby = eval.rotateHoisted(ct, baby_);
    Ciphertext acc;
    for (const Group &group : groups_) {
        Ciphertext sum;
        for (const Term &term : group.terms)
            accumulate(sum, eval.multPlain(baby[term.baby],
                                           encoder.encode(term.diag, scale,
                                                          ct.level())));
        accumulate(acc, group.giant == 0 ? std::move(sum)
                                         : eval.rotate(sum, group.giant));
    }
    return eval.rescale(acc);
}

} // namespace effact
