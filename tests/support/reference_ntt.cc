#include "reference_ntt.h"

namespace effact {

std::vector<u64>
negacyclicMulSchoolbook(const u64 *a, const u64 *b, size_t n, u64 q)
{
    std::vector<u64> c(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (a[i] == 0)
            continue;
        for (size_t j = 0; j < n; ++j) {
            u64 prod = mulMod(a[i], b[j], q);
            size_t k = i + j;
            if (k < n) {
                c[k] = addMod(c[k], prod, q);
            } else {
                // X^N = -1: wrap with sign flip.
                c[k - n] = subMod(c[k - n], prod, q);
            }
        }
    }
    return c;
}

} // namespace effact
