/**
 * @file
 * Tests for the FIT tables: the Section III-A scaling of Sridharan's
 * 1Gb field data must reproduce Table I.
 */

#include <gtest/gtest.h>

#include "faults/fit_rates.h"

namespace citadel {
namespace {

TEST(FitRates, PaperTableIVerbatim)
{
    const FitTable t = FitTable::paper8Gb();
    EXPECT_DOUBLE_EQ(t.bit.transientFit, 113.6);
    EXPECT_DOUBLE_EQ(t.bit.permanentFit, 148.8);
    EXPECT_DOUBLE_EQ(t.word.transientFit, 11.2);
    EXPECT_DOUBLE_EQ(t.word.permanentFit, 2.4);
    EXPECT_DOUBLE_EQ(t.column.transientFit, 2.6);
    EXPECT_DOUBLE_EQ(t.column.permanentFit, 10.5);
    EXPECT_DOUBLE_EQ(t.row.transientFit, 0.8);
    EXPECT_DOUBLE_EQ(t.row.permanentFit, 32.8);
    EXPECT_DOUBLE_EQ(t.bank.transientFit, 6.4);
    EXPECT_DOUBLE_EQ(t.bank.permanentFit, 80.0);
}

TEST(FitRates, ScalingReproducesTableI)
{
    const FitTable scaled = FitTable::sridharan1Gb().scaledForStackedDie();
    const FitTable paper = FitTable::paper8Gb();

    // Bit/word/row/bank scale exactly; column rounds in the paper
    // (1.4 * 1.9 = 2.66 printed as 2.6, 5.5 * 1.9 = 10.45 as 10.5).
    EXPECT_DOUBLE_EQ(scaled.bit.transientFit, paper.bit.transientFit);
    EXPECT_DOUBLE_EQ(scaled.bit.permanentFit, paper.bit.permanentFit);
    EXPECT_DOUBLE_EQ(scaled.word.transientFit, paper.word.transientFit);
    EXPECT_DOUBLE_EQ(scaled.word.permanentFit, paper.word.permanentFit);
    EXPECT_NEAR(scaled.column.transientFit, paper.column.transientFit,
                0.1);
    EXPECT_NEAR(scaled.column.permanentFit, paper.column.permanentFit,
                0.1);
    EXPECT_DOUBLE_EQ(scaled.row.transientFit, paper.row.transientFit);
    EXPECT_DOUBLE_EQ(scaled.row.permanentFit, paper.row.permanentFit);
    EXPECT_DOUBLE_EQ(scaled.bank.transientFit, paper.bank.transientFit);
    EXPECT_DOUBLE_EQ(scaled.bank.permanentFit, paper.bank.permanentFit);
}

TEST(FitRates, ScaledByMultipliesEveryRateExactly)
{
    // The campaign drivers boost Table I with scaledBy(); it must be
    // the plain per-rate product, bit for bit.
    const FitTable t = FitTable::paper8Gb();
    const double s = 2000.0;
    const FitTable x = t.scaledBy(s);
    const FitPair FitTable::*modes[] = {&FitTable::bit, &FitTable::word,
                                        &FitTable::column, &FitTable::row,
                                        &FitTable::bank};
    for (const auto mode : modes) {
        EXPECT_EQ((x.*mode).transientFit, (t.*mode).transientFit * s);
        EXPECT_EQ((x.*mode).permanentFit, (t.*mode).permanentFit * s);
    }
    EXPECT_EQ(t.scaledBy(0.0).totalFit(), 0.0);
}

TEST(FitRates, TotalsAreSums)
{
    const FitTable t = FitTable::paper8Gb();
    EXPECT_NEAR(t.totalFit(), 113.6 + 148.8 + 11.2 + 2.4 + 2.6 + 10.5 +
                                  0.8 + 32.8 + 6.4 + 80.0,
                1e-9);
    EXPECT_NEAR(t.bit.total(), 262.4, 1e-9);
}

TEST(FitRates, PermanentsDominateLargeGranularity)
{
    // The field data's key property: bank failures are as frequent as
    // bit failures, and mostly permanent.
    const FitTable t = FitTable::paper8Gb();
    EXPECT_GT(t.bank.permanentFit, t.row.permanentFit);
    EXPECT_GT(t.bank.permanentFit, t.column.permanentFit);
    EXPECT_GT(t.bank.permanentFit / t.bank.total(), 0.9);
}

} // namespace
} // namespace citadel
