/**
 * @file
 * Tests for the Monte Carlo engine: scrub semantics, determinism,
 * year-by-year accumulation, and sanity of failure probabilities
 * against closed-form expectations.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "citadel/citadel.h"
#include "fault_builders.h"
#include "faults/monte_carlo.h"

namespace citadel {
namespace {

using namespace testing_helpers;

/** One lifetime over a hand-built fault history, in arrival order. */
double
runTrial(const MonteCarlo &mc, RasScheme &scheme,
         const std::vector<Fault> &events,
         FaultClass *trigger = nullptr)
{
    std::vector<Fault> active;
    return mc.runTrial(scheme, events, trigger, active);
}

class McTest : public ::testing::Test
{
  protected:
    SystemConfig cfg_;
};

TEST_F(McTest, DeterministicForSeed)
{
    MonteCarlo mc(cfg_);
    NoProtection none;
    const McResult a = mc.run(none, 2000, 99);
    const McResult b = mc.run(none, 2000, 99);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.failuresByYear, b.failuresByYear);
}

TEST_F(McTest, SeedChangesOutcome)
{
    MonteCarlo mc(cfg_);
    NoProtection none;
    const McResult a = mc.run(none, 2000, 1);
    const McResult b = mc.run(none, 2000, 2);
    EXPECT_NE(a.failures, b.failures);
}

TEST_F(McTest, NoProtectionMatchesClosedForm)
{
    // P(fail) = 1 - exp(-rate * lifetime * dies): any fault is fatal.
    MonteCarlo mc(cfg_);
    NoProtection none;
    const McResult r = mc.run(none, 20000, 5);
    const double dies = cfg_.geom.stacks * (cfg_.geom.channelsPerStack + 1);
    const double lambda =
        fitToPerHour(cfg_.rates.totalFit()) * cfg_.lifetimeHours * dies;
    const double expect = 1.0 - std::exp(-lambda);
    EXPECT_NEAR(r.probFail().estimate, expect, 0.01);
}

TEST_F(McTest, FailuresByYearMonotonic)
{
    MonteCarlo mc(cfg_);
    NoProtection none;
    const McResult r = mc.run(none, 5000, 7);
    ASSERT_EQ(r.failuresByYear.size(), 7u);
    for (std::size_t y = 1; y < r.failuresByYear.size(); ++y)
        EXPECT_LE(r.failuresByYear[y - 1], r.failuresByYear[y]);
    EXPECT_EQ(r.failuresByYear.back(), r.failures);
    EXPECT_DOUBLE_EQ(r.probFailByYear(7).estimate,
                     r.probFail().estimate);
}

TEST_F(McTest, ProbFailByYearRangeChecked)
{
    MonteCarlo mc(cfg_);
    NoProtection none;
    const McResult r = mc.run(none, 100, 7);
    EXPECT_DEATH(r.probFailByYear(0), "out of range");
    EXPECT_DEATH(r.probFailByYear(8), "out of range");
}

TEST_F(McTest, TransientsClearAtScrubBoundary)
{
    MonteCarlo mc(cfg_);
    // Two transient bank faults in different scrub windows must not
    // interact under 3DP; in the same window they are fatal.
    MultiDimParityScheme scheme(3);

    Fault a = bankFault(0, 1, 2);
    a.transient = true;
    a.timeHours = 1.0;
    Fault b = bankFault(0, 2, 5);
    b.transient = true;

    b.timeHours = 2.0; // same 12h window
    EXPECT_GE(runTrial(mc, scheme, {a, b}), 0.0);

    b.timeHours = 30.0; // two scrub boundaries later
    EXPECT_LT(runTrial(mc, scheme, {a, b}), 0.0);
}

TEST_F(McTest, PermanentsPersistWithoutSparing)
{
    MonteCarlo mc(cfg_);
    MultiDimParityScheme scheme(3);
    Fault a = bankFault(0, 1, 2); // permanent
    a.timeHours = 1.0;
    Fault b = bankFault(0, 2, 5);
    b.timeHours = 10000.0; // months later
    EXPECT_GE(runTrial(mc, scheme, {a, b}), 0.0);
}

TEST_F(McTest, DdsSparesPermanentsBetweenWindows)
{
    MonteCarlo mc(cfg_);
    DdsScheme scheme(std::make_unique<MultiDimParityScheme>(3));
    Fault a = bankFault(0, 1, 2);
    a.timeHours = 1.0;
    Fault b = bankFault(0, 2, 5);
    b.timeHours = 10000.0;
    EXPECT_LT(runTrial(mc, scheme, {a, b}), 0.0);

    // Within one window DDS has not yet run: still fatal.
    b.timeHours = 2.0;
    EXPECT_GE(runTrial(mc, scheme, {a, b}), 0.0);
}

TEST_F(McTest, TsvSwapAbsorbsBeforeEvaluation)
{
    MonteCarlo mc(cfg_);
    TsvSwapScheme scheme(std::make_unique<MultiDimParityScheme>(3));
    Fault t = dataTsvFault(0, 1, 7);
    t.timeHours = 5.0;
    EXPECT_LT(runTrial(mc, scheme, {t}), 0.0);

    MultiDimParityScheme bare(3);
    EXPECT_GE(runTrial(mc, bare, {t}), 0.0);
}

TEST_F(McTest, FirstFailureTimeIsReported)
{
    MonteCarlo mc(cfg_);
    NoProtection none;
    Fault a = bitFault(0, 1, 2, 3, 4, 5);
    a.timeHours = 777.0;
    const double t = runTrial(mc, none, {a});
    EXPECT_DOUBLE_EQ(t, 777.0);
}

TEST_F(McTest, MeanFaultsPerTrialReported)
{
    MonteCarlo mc(cfg_);
    NoProtection none;
    const McResult r = mc.run(none, 3000, 11);
    const double dies = cfg_.geom.stacks * (cfg_.geom.channelsPerStack + 1);
    const double expect =
        fitToPerHour(cfg_.rates.totalFit()) * cfg_.lifetimeHours * dies;
    EXPECT_NEAR(r.meanFaultsPerTrial, expect, 0.05 * expect + 0.02);
}

TEST_F(McTest, FailureAttributionRecorded)
{
    MonteCarlo mc(cfg_);
    NoProtection none;
    const McResult r = mc.run(none, 3000, 23);
    u64 attributed = 0;
    for (const auto &[cls, count] : r.failuresByClass) {
        (void)cls;
        attributed += count;
    }
    EXPECT_EQ(attributed, r.failures);
    // Bit faults dominate the Table I rates, so they dominate the
    // attribution for a scheme where any fault is fatal.
    ASSERT_TRUE(r.failuresByClass.count(FaultClass::Bit));
    EXPECT_GT(r.failuresByClass.at(FaultClass::Bit), r.failures / 3);
}

TEST_F(McTest, TriggerClassReportedByTrial)
{
    MonteCarlo mc(cfg_);
    NoProtection none;
    Fault a = bankFault(0, 1, 2);
    a.timeHours = 5.0;
    FaultClass trigger = FaultClass::Bit;
    EXPECT_GE(runTrial(mc, none, {a}, &trigger), 0.0);
    EXPECT_EQ(trigger, FaultClass::Bank);
}

TEST_F(McTest, SchemeOrderingMatchesPaperAtSystemLevel)
{
    // Smoke-level ordering on modest trial counts (the full comparison
    // is bench/fig18): Citadel <= 3DP <= Same-Bank SSC failure prob.
    cfg_.tsvDeviceFit = 0.0;
    MonteCarlo mc(cfg_);
    const u64 trials = 4000;

    auto citadel_scheme = makeCitadel();
    auto parity = makeParityOnly(3);
    auto same_bank = makeSymbolBaseline(StripingMode::SameBank);

    const double p_cit =
        mc.run(*citadel_scheme, trials, 3).probFail().estimate;
    const double p_3dp = mc.run(*parity, trials, 3).probFail().estimate;
    const double p_sb = mc.run(*same_bank, trials, 3).probFail().estimate;

    EXPECT_LE(p_cit, p_3dp + 1e-9);
    EXPECT_LT(p_3dp, p_sb);
    EXPECT_GT(p_sb, 0.05); // Same-Bank SSC fails on any large fault
}

} // namespace
} // namespace citadel
