/**
 * @file
 * Tests for the statistics toolkit (streaming moments, Wilson CI,
 * the ratio-of-proportions interval, geometric mean).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"

namespace citadel {
namespace {

TEST(StreamingStats, EmptyIsZero)
{
    StreamingStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, SingleSample)
{
    StreamingStats s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(StreamingStats, KnownMoments)
{
    StreamingStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, NegativeValues)
{
    StreamingStats s;
    s.add(-3.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_NEAR(s.variance(), 18.0, 1e-12);
}

TEST(Wilson, ZeroTrials)
{
    const Proportion p = wilson(0, 0);
    EXPECT_EQ(p.trials, 0u);
    EXPECT_DOUBLE_EQ(p.estimate, 0.0);
}

TEST(Wilson, ZeroSuccessesHasPositiveUpperBound)
{
    const Proportion p = wilson(0, 1000);
    EXPECT_DOUBLE_EQ(p.estimate, 0.0);
    EXPECT_NEAR(p.lo95, 0.0, 1e-12);
    EXPECT_GT(p.hi95, 0.0);
    EXPECT_LT(p.hi95, 0.01); // rule of three: ~3/n
}

TEST(Wilson, AllSuccesses)
{
    const Proportion p = wilson(1000, 1000);
    EXPECT_DOUBLE_EQ(p.estimate, 1.0);
    EXPECT_LT(p.lo95, 1.0);
    EXPECT_DOUBLE_EQ(p.hi95, 1.0);
}

TEST(Wilson, CoversTrueProportion)
{
    const Proportion p = wilson(500, 1000);
    EXPECT_NEAR(p.estimate, 0.5, 1e-12);
    EXPECT_LT(p.lo95, 0.5);
    EXPECT_GT(p.hi95, 0.5);
    // Interval width ~ 2 * 1.96 * sqrt(0.25/1000) ~ 0.062.
    EXPECT_NEAR(p.hi95 - p.lo95, 0.062, 0.005);
}

TEST(Wilson, IntervalShrinksWithTrials)
{
    const Proportion small = wilson(5, 100);
    const Proportion big = wilson(500, 10000);
    EXPECT_LT(big.hi95 - big.lo95, small.hi95 - small.lo95);
}

TEST(RatioInterval, KnownValue)
{
    // 100/1000 over 10/1000: ratio 10, ln-variance 1/100 - 1/1000 +
    // 1/10 - 1/1000 = 0.108.
    const auto r = ratioInterval(wilson(100, 1000), wilson(10, 1000));
    ASSERT_TRUE(r.has_value());
    const double half = 1.959963984540054 * std::sqrt(0.108);
    EXPECT_NEAR(r->ratio, 10.0, 1e-12);
    EXPECT_NEAR(r->lo95, 10.0 * std::exp(-half), 1e-9);
    EXPECT_NEAR(r->hi95, 10.0 * std::exp(half), 1e-9);
}

TEST(RatioInterval, SwappingSidesInvertsTheInterval)
{
    const Proportion a = wilson(128825, 100000000);
    const Proportion b = wilson(117, 100000000);
    const auto ab = ratioInterval(a, b);
    const auto ba = ratioInterval(b, a);
    ASSERT_TRUE(ab && ba);
    EXPECT_NEAR(ab->ratio * ba->ratio, 1.0, 1e-12);
    EXPECT_NEAR(ab->lo95 * ba->hi95, 1.0, 1e-12);
    EXPECT_NEAR(ab->hi95 * ba->lo95, 1.0, 1e-12);
    EXPECT_LT(ab->lo95, ab->ratio);
    EXPECT_GT(ab->hi95, ab->ratio);
}

TEST(RatioInterval, UndefinedWithoutSuccessOnEitherSide)
{
    EXPECT_FALSE(ratioInterval(wilson(5, 100), wilson(0, 100)));
    EXPECT_FALSE(ratioInterval(wilson(0, 100), wilson(5, 100)));
    EXPECT_TRUE(ratioInterval(wilson(100, 100), wilson(1, 100)));
}

TEST(RatioInterval, CoversTheTrueRatio)
{
    // Binomial draws at a known ratio of 4: the interval holds it in
    // about 95% of replications.
    Rng rng(41);
    const double p1 = 0.04;
    const double p2 = 0.01;
    const u64 n = 4000;
    const int reps = 2000;
    int covered = 0;
    for (int i = 0; i < reps; ++i) {
        u64 x1 = 0;
        u64 x2 = 0;
        for (u64 k = 0; k < n; ++k) {
            x1 += rng.chance(p1);
            x2 += rng.chance(p2);
        }
        const auto r = ratioInterval(wilson(x1, n), wilson(x2, n));
        ASSERT_TRUE(r.has_value());
        covered += r->lo95 <= p1 / p2 && p1 / p2 <= r->hi95;
    }
    const double coverage = static_cast<double>(covered) / reps;
    EXPECT_GT(coverage, 0.93);
    EXPECT_LT(coverage, 0.975);
}

TEST(Geomean, Basics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, InvariantUnderPermutation)
{
    EXPECT_NEAR(geomean({1.5, 2.5, 9.0}), geomean({9.0, 1.5, 2.5}), 1e-12);
}

TEST(Mean, Basics)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

} // namespace
} // namespace citadel
