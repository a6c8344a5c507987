/**
 * @file
 * Unit and statistical tests for the xoshiro256** RNG and its samplers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace citadel {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng r(0);
    std::set<u64> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(r.next());
    EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    StreamingStats s;
    for (int i = 0; i < 20000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        s.add(u);
    }
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, BelowIsUnbiased)
{
    Rng r(11);
    const u64 n = 10;
    std::vector<u64> counts(n, 0);
    const int trials = 50000;
    for (int i = 0; i < trials; ++i)
        ++counts[r.below(n)];
    for (u64 c : counts)
        EXPECT_NEAR(static_cast<double>(c), trials / 10.0,
                    5.0 * std::sqrt(trials / 10.0));
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng r(12);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, InRangeInclusive)
{
    Rng r(13);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const u64 v = r.inRange(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(14);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
        EXPECT_FALSE(r.chance(-1.0));
        EXPECT_TRUE(r.chance(2.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(15);
    int hits = 0;
    const int trials = 40000;
    for (int i = 0; i < trials; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.015);
}

TEST(Rng, ExponentialMean)
{
    Rng r(16);
    StreamingStats s;
    const double rate = 2.5;
    for (int i = 0; i < 40000; ++i)
        s.add(r.exponential(rate));
    EXPECT_NEAR(s.mean(), 1.0 / rate, 0.02);
}

TEST(Rng, PoissonZeroLambda)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.poisson(0.0), 0u);
}

TEST(Rng, PoissonSmallLambdaMoments)
{
    Rng r(18);
    const double lambda = 0.25; // typical per-die fault count regime
    StreamingStats s;
    for (int i = 0; i < 80000; ++i)
        s.add(static_cast<double>(r.poisson(lambda)));
    EXPECT_NEAR(s.mean(), lambda, 0.01);
    EXPECT_NEAR(s.variance(), lambda, 0.02);
}

TEST(Rng, PoissonModerateLambdaMoments)
{
    Rng r(19);
    const double lambda = 8.0;
    StreamingStats s;
    for (int i = 0; i < 40000; ++i)
        s.add(static_cast<double>(r.poisson(lambda)));
    EXPECT_NEAR(s.mean(), lambda, 0.1);
    EXPECT_NEAR(s.variance(), lambda, 0.35);
}

TEST(Rng, PoissonLargeLambdaNormalPath)
{
    Rng r(20);
    const double lambda = 200.0;
    StreamingStats s;
    for (int i = 0; i < 20000; ++i)
        s.add(static_cast<double>(r.poisson(lambda)));
    EXPECT_NEAR(s.mean(), lambda, 1.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(lambda), 0.6);
}

TEST(Rng, NextMatchesTextbookXoshiro)
{
    // xoshiroStep writes the multiplies as shift-adds; the stream must
    // still be Blackman & Vigna's, multiplies and all.
    Rng r(21);
    std::array<u64, 4> s = r.saveState();
    auto rotl = [](u64 x, int k) { return (x << k) | (x >> (64 - k)); };
    for (int i = 0; i < 10000; ++i) {
        const u64 want = rotl(s[1] * 5, 7) * 9;
        const u64 t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        ASSERT_EQ(r.next(), want) << "draw " << i;
    }
    EXPECT_EQ(r.saveState(), s);
}

TEST(Rng, UnitThresholdIsTheIntegerFormOfTheUniformTest)
{
    // unit(x) <= p exactly when (x >> 11) <= unitThreshold(p), at the
    // draws on both sides of p's threshold and for p on and off the
    // 2^-53 grid (below 0.5 a double is finer than the grid).
    Rng r(22);
    auto agree = [](u64 x, double p) {
        return (Rng::unit(x) <= p) ==
               ((x >> 11) <= Rng::unitThreshold(p));
    };
    for (int i = 0; i < 20000; ++i) {
        double p = r.uniform();
        if (i % 4 == 1)
            p = std::exp(-30.0 * r.uniform()); // a cell's exp(-lambda)
        if (i % 4 == 2)
            p = Rng::unit(r.next()); // exactly on the grid
        if (i % 4 == 3)
            p = std::nextafter(Rng::unit(r.next()), 0.0);
        const u64 k = Rng::unitThreshold(p);
        for (const u64 top : {k - 1, k, k + 1}) {
            if (top >= (u64{1} << 53))
                continue;
            const u64 low = r.next() & 0x7FF; // bits unit() drops
            ASSERT_TRUE(agree((top << 11) | low, p)) << p;
        }
    }
    EXPECT_EQ(Rng::unitThreshold(1.0), u64{1} << 53);
    EXPECT_EQ(Rng::unitThreshold(0.0), 0u);

    // chance(odds(p)) is chance(p) draw for draw: the same outcome and
    // the same generator state after it, including the no-draw ends
    // (p <= 0, p >= 1), the largest double below 1, the smallest
    // positive double and p on and off the 2^-53 grid.
    const double largest_below_one = std::nextafter(1.0, 0.0);
    std::vector<double> ps = {0.0, -0.5, 1.0, 1.5, largest_below_one,
                              std::nextafter(0.0, 1.0), 0x1.0p-53,
                              1.0 / 1.5, 1.0 / 512.0, 0.45};
    for (int i = 0; i < 2000; ++i) {
        ps.push_back(r.uniform());
        ps.push_back(Rng::unit(r.next()));
        ps.push_back(std::nextafter(Rng::unit(r.next()), 1.0));
    }
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const double p = ps[i];
        Rng a(mix64(i));
        Rng b = a;
        const Rng::Odds o = Rng::odds(p);
        for (int d = 0; d < 64; ++d)
            ASSERT_EQ(a.chance(p), b.chance(o)) << p << " draw " << d;
        ASSERT_EQ(a.saveState(), b.saveState()) << p;
    }
    EXPECT_EQ(Rng::odds(largest_below_one).bound, (u64{1} << 53) - 1);
    EXPECT_EQ(Rng::odds(0.0).bound, 0u);
    EXPECT_EQ(Rng::odds(1.0).bound, u64{1} << 53);

    // At the threshold itself: a draw whose top 53 bits sit just below,
    // at and just above ceil(p * 2^53) decides as unit(x) < p does.
    for (int i = 0; i < 20000; ++i) {
        const double p = i % 2 ? r.uniform() : Rng::unit(r.next());
        if (p <= 0.0)
            continue;
        const u64 k = Rng::odds(p).bound;
        for (const u64 top : {k - 1, k, k + 1}) {
            if (top >= (u64{1} << 53))
                continue;
            const u64 x = (top << 11) | (r.next() & 0x7FF);
            ASSERT_EQ(Rng::unit(x) < p, (x >> 11) < k) << p;
        }
    }
}

TEST(Rng, LanesMoveStateBitForBit)
{
    RngLanes lanes;
    Rng a(23);
    for (unsigned l = 0; l < RngLanes::kLanes; ++l)
        lanes.load(l, Rng(100 + l));
    lanes.load(2, a);
    Rng b(0);
    lanes.store(2, b);
    EXPECT_EQ(b.saveState(), a.saveState());
    EXPECT_EQ(b.next(), a.next());
    Rng other(0);
    lanes.store(3, other);
    EXPECT_EQ(other.saveState(), Rng(103).saveState());
}

// The guide-table lookup against the binary search it replaced, over
// the same CDF: at every CDF value, one ulp either side of each, and
// at counter-seeded unit doubles. The oracle rebuilds the CDF with
// the constructor's arithmetic and searches it with upper_bound
// (first rank whose CDF exceeds u); theta = 0 is the uniform path.
TEST(ZipfCdf, GuideTableMatchesBinarySearch)
{
    for (const u64 n : {u64{1}, u64{2}, u64{3}, u64{512}, u64{1000}}) {
        for (const double theta : {0.0, 0.5, 0.9, 1.2}) {
            SCOPED_TRACE("n " + std::to_string(n) + " theta " +
                         std::to_string(theta));
            const ZipfCdf zipf(n, theta);
            std::vector<double> cdf(n);
            double total = 0.0;
            for (u64 r = 0; r < n; ++r) {
                total += theta == 0.0
                             ? 1.0
                             : 1.0 / std::pow(static_cast<double>(r + 1),
                                              theta);
                cdf[r] = total;
            }
            for (u64 r = 0; r < n; ++r)
                cdf[r] /= total;
            cdf[n - 1] = 1.0;
            const auto oracle = [&](double u) -> u64 {
                if (theta == 0.0)
                    return std::min(
                        static_cast<u64>(u * static_cast<double>(n)),
                        n - 1);
                return static_cast<u64>(
                    std::upper_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
            };

            std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
            for (const double c : cdf)
                for (const double u : {std::nextafter(c, 0.0), c,
                                       std::nextafter(c, 1.0)})
                    if (u >= 0.0 && u < 1.0)
                        us.push_back(u);
            for (u64 i = 0; i < 100'000; ++i)
                us.push_back(Rng::unit(mix64(i ^ (n << 40))));
            for (const double u : us)
                ASSERT_EQ(zipf.rank(u), oracle(u)) << "u " << u;
        }
    }
}

} // namespace
} // namespace citadel
