/**
 * @file
 * Tests for the LLC model: LRU behavior, dirty eviction reporting, and
 * parity-line bookkeeping.
 */

#include <gtest/gtest.h>

#include "sim/llc.h"

namespace citadel {
namespace {

TEST(Llc, GeometryChecks)
{
    Llc c(8ull << 20, 8);
    EXPECT_EQ(c.sets(), (8ull << 20) / 64 / 8);
    EXPECT_DEATH(Llc bad(100, 8), "bad geometry");
}

TEST(Llc, FillAndEvictLru)
{
    // 2 sets x 2 ways; addresses with the same parity share a set.
    Llc c(4 * 64, 2);
    ASSERT_EQ(c.sets(), 2u);

    EXPECT_FALSE(c.fill(LineAddr{0}, false, false).valid);
    EXPECT_FALSE(c.fill(LineAddr{2}, false, false).valid);
    // Set 0 is full {0, 2}; filling 4 evicts the LRU (0).
    const auto v = c.fill(LineAddr{4}, false, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, LineAddr{0});
    EXPECT_FALSE(v.dirty);
}

TEST(Llc, TouchUpdatesLru)
{
    Llc c(4 * 64, 2);
    c.fill(LineAddr{0}, false, true);
    c.fill(LineAddr{2}, false, false);
    // Touch 0 via a parity probe; now 2 is LRU.
    EXPECT_TRUE(c.probeParity(LineAddr{0}));
    const auto v = c.fill(LineAddr{4}, false, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, LineAddr{2});
}

TEST(Llc, DirtyEvictionReported)
{
    Llc c(4 * 64, 2);
    c.fill(LineAddr{0}, true, false);
    c.fill(LineAddr{2}, false, false);
    const auto v = c.fill(LineAddr{4}, false, false);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_FALSE(v.parity);
    EXPECT_EQ(c.stats().dirtyDataEvictions, 1u);
}

TEST(Llc, ParityProbeMissThenHit)
{
    Llc c(4 * 64, 2);
    EXPECT_FALSE(c.probeParity(LineAddr{6}));
    c.fill(LineAddr{6}, true, true);
    EXPECT_TRUE(c.probeParity(LineAddr{6}));
    EXPECT_EQ(c.stats().parityProbes, 2u);
    EXPECT_EQ(c.stats().parityHits, 1u);
    EXPECT_DOUBLE_EQ(c.stats().parityHitRate(), 0.5);
}

TEST(Llc, ParityEvictionTagged)
{
    Llc c(4 * 64, 2);
    c.fill(LineAddr{0}, true, true); // dirty parity line
    c.fill(LineAddr{2}, false, false);
    const auto v = c.fill(LineAddr{4}, false, false);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.parity);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(c.stats().dirtyParityEvictions, 1u);
}

TEST(Llc, RefillOfResidentLineNoEviction)
{
    Llc c(4 * 64, 2);
    c.fill(LineAddr{0}, false, false);
    const auto v = c.fill(LineAddr{0}, true, false);
    EXPECT_FALSE(v.valid);
    // The refill merged dirtiness.
    c.fill(LineAddr{2}, false, false);
    const auto v2 = c.fill(LineAddr{4}, false, false);
    ASSERT_TRUE(v2.valid);
    EXPECT_EQ(v2.addr, LineAddr{0});
    EXPECT_TRUE(v2.dirty);
}

TEST(Llc, EightWayEvictsInTouchOrder)
{
    // One set of 8 ways (Table II associativity): every line maps to
    // it. Touch all 8 residents in a permuted order, alternating refill
    // and parity probe, then 8 new fills must evict in touch order.
    Llc c(8 * 64, 8);
    ASSERT_EQ(c.sets(), 1u);
    for (u64 a = 0; a < 8; ++a)
        EXPECT_FALSE(c.fill(LineAddr{a}, false, false).valid);
    const u64 touch[8] = {5, 2, 7, 0, 3, 6, 1, 4};
    for (std::size_t i = 0; i < 8; ++i) {
        if (i % 2 == 0)
            EXPECT_FALSE(c.fill(LineAddr{touch[i]}, false, false).valid);
        else
            EXPECT_TRUE(c.probeParity(LineAddr{touch[i]}));
    }
    for (std::size_t i = 0; i < 8; ++i) {
        const auto v = c.fill(LineAddr{100 + i}, false, false);
        ASSERT_TRUE(v.valid) << i;
        EXPECT_EQ(v.addr, LineAddr{touch[i]}) << i;
        EXPECT_EQ(v.dirty, i % 2 == 1) << i; // probes mark dirty
    }
}

TEST(Llc, StatsCountFills)
{
    Llc c(8 * 64, 2);
    c.fill(LineAddr{0}, false, false);
    c.fill(LineAddr{1}, false, true);
    EXPECT_EQ(c.stats().dataFills, 1u);
    EXPECT_EQ(c.stats().parityFills, 1u);
}

TEST(Llc, EmptyStatsZeroHitRate)
{
    Llc c(8 * 64, 2);
    EXPECT_DOUBLE_EQ(c.stats().parityHitRate(), 0.0);
}

} // namespace
} // namespace citadel
