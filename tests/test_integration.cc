/**
 * @file
 * End-to-end integration tests: the full Citadel stack against the
 * paper's baselines on the real configuration, plus the storage
 * overhead accounting of Section VII-E.
 */

#include <gtest/gtest.h>

#include "citadel/citadel.h"

namespace citadel {
namespace {

class IntegrationTest : public ::testing::Test
{
  protected:
    SystemConfig cfg_;
    u64 trials_ = 3000;
};

TEST_F(IntegrationTest, CitadelSurvivesHighTsvFaultRates)
{
    // Fig 9: with TSV-Swap, reliability at 1430 TSV FIT matches the
    // no-TSV-fault level.
    cfg_.tsvDeviceFit = 1430.0;
    MonteCarlo mc(cfg_);
    auto with_swap = makeCitadel();
    const double p_swap =
        mc.run(*with_swap, trials_, 21).probFail().estimate;

    SystemConfig no_tsv = cfg_;
    no_tsv.tsvDeviceFit = 0.0;
    MonteCarlo mc_clean(no_tsv);
    const double p_clean =
        mc_clean.run(*with_swap, trials_, 21).probFail().estimate;

    CitadelOptions no_swap_opts;
    no_swap_opts.enableTsvSwap = false;
    auto no_swap = makeCitadel(no_swap_opts);
    const double p_noswap =
        mc.run(*no_swap, trials_, 21).probFail().estimate;

    EXPECT_LE(p_swap, p_clean + 0.01);
    EXPECT_GT(p_noswap, p_swap);
}

TEST_F(IntegrationTest, ReliabilityOrderingAcrossSchemes)
{
    // The qualitative ordering behind Figs 14, 18, 19:
    // Citadel < 3DP < striped SSC < Same-Bank SSC, and
    // 6EC7ED is the weakest baseline.
    cfg_.tsvDeviceFit = 0.0;
    MonteCarlo mc(cfg_);

    auto full = makeCitadel();
    auto parity3 = makeParityOnly(3);
    auto ssc_ac = makeSymbolBaseline(StripingMode::AcrossChannels);
    auto ssc_sb = makeSymbolBaseline(StripingMode::SameBank);
    auto bch = makeBchBaseline();

    const double p_full =
        mc.run(*full, trials_, 8).probFail().estimate;
    const double p_3dp =
        mc.run(*parity3, trials_, 8).probFail().estimate;
    const double p_ac =
        mc.run(*ssc_ac, trials_, 8).probFail().estimate;
    const double p_sb =
        mc.run(*ssc_sb, trials_, 8).probFail().estimate;
    const double p_bch = mc.run(*bch, trials_, 8).probFail().estimate;

    EXPECT_LE(p_full, p_3dp);
    EXPECT_LE(p_3dp, p_ac + 0.01);
    EXPECT_LT(p_ac, p_sb);
    EXPECT_GE(p_bch, p_sb * 0.5); // both die on large faults
    // Citadel removes essentially all failures at this trial count.
    EXPECT_LT(p_full, 0.01);
}

TEST_F(IntegrationTest, ParityDimensionAblation)
{
    // Fig 14: resilience improves monotonically with dimensions.
    cfg_.tsvDeviceFit = 0.0;
    MonteCarlo mc(cfg_);
    double prev = 1.0;
    for (u32 dims : {1u, 2u, 3u}) {
        auto s = makeParityOnly(dims);
        const double p = mc.run(*s, trials_, 9).probFail().estimate;
        EXPECT_LE(p, prev + 0.005) << "dims=" << dims;
        prev = p;
    }
}

TEST_F(IntegrationTest, StorageOverheadMatchesSectionVIIE)
{
    const StorageOverhead o = computeOverhead(cfg_);
    EXPECT_NEAR(o.eccDieFraction, 0.125, 1e-12);   // 1 die per 8
    EXPECT_NEAR(o.parityBankFraction, 1.0 / 64.0, 1e-12);
    EXPECT_NEAR(o.dramFraction(), 0.1406, 0.001);  // ~14%
    EXPECT_EQ(o.sramParityBytes, 17u * 2048u);     // 34KB (9+8 rows)
    EXPECT_NEAR(static_cast<double>(o.sramRemapBytes), 1056.0, 16.0);
}

TEST_F(IntegrationTest, OverheadRespondsToOptions)
{
    CitadelOptions opts;
    opts.parityDims = 1;
    opts.enableDds = false;
    const StorageOverhead o = computeOverhead(cfg_, opts);
    EXPECT_EQ(o.sramParityBytes, 0u);
    EXPECT_EQ(o.sramRemapBytes, 0u);
    EXPECT_NEAR(o.dramFraction(), 0.1406, 0.001);
}

TEST_F(IntegrationTest, SchemeNamesComposeCorrectly)
{
    EXPECT_EQ(makeCitadel()->name(), "TSV-Swap+DDS+3DP");
    CitadelOptions opts;
    opts.enableTsvSwap = false;
    EXPECT_EQ(makeCitadel(opts)->name(), "DDS+3DP");
    opts.enableDds = false;
    opts.parityDims = 2;
    EXPECT_EQ(makeCitadel(opts)->name(), "2DP");
}

} // namespace
} // namespace citadel
