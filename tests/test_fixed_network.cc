/**
 * @file
 * Fixed-network transpose tests (Fig. 7): the FN plus bit-reversed row
 * fetch order must reproduce the exact matrix transpose that ARK/SHARP
 * obtain with banked register files.
 */
#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/rng.h"
#include "math/fixed_network.h"

namespace effact {
namespace {

class FnSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(FnSizes, MatchesTrueTranspose)
{
    const size_t lanes = GetParam();
    const size_t n = lanes * lanes;
    const uint32_t logn = log2Exact(n);
    FixedNetwork fn(lanes);

    // Natural-order data a[0..n), its natural matrix A[i][j] = a[i*C+j].
    Rng rng(lanes);
    std::vector<u64> a(n);
    for (auto &v : a)
        v = rng.next();

    // NTT-domain layout: position p holds a[br(p)].
    std::vector<u64> bitrev(n);
    for (size_t p = 0; p < n; ++p)
        bitrev[p] = a[bitReverse(static_cast<uint32_t>(p), logn)];

    auto got = fn.transposeFromBitrev(bitrev);

    // Ground truth transpose of the natural matrix.
    for (size_t r = 0; r < lanes; ++r)
        for (size_t c = 0; c < lanes; ++c)
            EXPECT_EQ(got[r * lanes + c], a[c * lanes + r])
                << "lanes=" << lanes << " r=" << r << " c=" << c;
}

INSTANTIATE_TEST_SUITE_P(Square, FnSizes, ::testing::Values(2, 4, 8, 16, 64));

TEST(BitOps, Log2FloorCeilAndExact)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(24), 5u);
    EXPECT_EQ(log2Ceil(32), 5u);
    EXPECT_EQ(log2Ceil(33), 6u);
    EXPECT_EQ(log2Floor(24), 4u);
    EXPECT_EQ(log2Exact(32), 5u);
}

TEST(BitOpsDeathTest, Log2ExactRejectsANonPowerOfTwo)
{
    EXPECT_DEATH(log2Exact(24), "not a power of two");
}

TEST(FixedNetwork, RowPermutationIsInvolution)
{
    // Bit reversal is its own inverse: applying the wiring twice is a no-op.
    const size_t lanes = 32;
    FixedNetwork fn(lanes);
    Rng rng(99);
    std::vector<u64> row(lanes), once(lanes), twice(lanes);
    for (auto &v : row)
        v = rng.next();
    fn.permuteRow(row.data(), once.data());
    fn.permuteRow(once.data(), twice.data());
    EXPECT_EQ(row, twice);
}

TEST(FixedNetwork, WiringCostLinearInLanes)
{
    EXPECT_DOUBLE_EQ(FixedNetwork::wiringCost(256), 256.0);
    EXPECT_LT(FixedNetwork::wiringCost(1024), 1024.0 * 1024.0);
}

} // namespace
} // namespace effact
