/**
 * @file
 * Ground truth for the NTT path: negacyclic convolution computed by
 * the O(N^2) schoolbook product, with no transform involved. The NTT
 * and RNS suites compare `Ntt` round trips and `RnsPoly` evaluation-
 * form products against it.
 *
 * Test support only: built as a static library next to the suites,
 * never installed or exported with `libeffact`.
 */
#ifndef EFFACT_TESTS_SUPPORT_REFERENCE_NTT_H
#define EFFACT_TESTS_SUPPORT_REFERENCE_NTT_H

#include <cstddef>
#include <vector>

#include "math/mod_arith.h"

namespace effact {

/** c = a * b mod (X^n + 1, q), by the schoolbook product. Pointer spans
 *  so callers can pass any u64 storage (plain or aligned vectors). */
std::vector<u64> negacyclicMulSchoolbook(const u64 *a, const u64 *b,
                                         size_t n, u64 q);

} // namespace effact

#endif // EFFACT_TESTS_SUPPORT_REFERENCE_NTT_H
