/**
 * @file
 * Tests for the analytic baseline evaluators: the ChipKill-like symbol
 * code at all three stripings, BCH 6EC7ED and RAID-5. Each case encodes
 * a claim from Sections II-E, V-B or VIII-F of the paper.
 */

#include <gtest/gtest.h>

#include "ecc/baseline_schemes.h"
#include "fault_builders.h"

namespace citadel {
namespace {

using namespace testing_helpers;

class BaselineTest : public ::testing::Test
{
  protected:
    SystemConfig cfg_;

    bool
    unc(RasScheme &s, std::vector<Fault> faults)
    {
        s.reset(cfg_);
        return s.uncorrectable(faults);
    }

    u32 ecc() const { return cfg_.eccChannel(); }
};

// ---------------------------------------------------------------- SameBank

TEST_F(BaselineTest, SameBankToleratesSingleBitFault)
{
    SymbolStripedScheme s(StripingMode::SameBank);
    EXPECT_FALSE(unc(s, {bitFault(0, 1, 2, 3, 4, 5)}));
}

TEST_F(BaselineTest, SameBankFailsOnWordFault)
{
    // A 64-bit word spans 8 symbols of the line's codeword.
    SymbolStripedScheme s(StripingMode::SameBank);
    EXPECT_TRUE(unc(s, {wordFault(0, 1, 2, 3, 4, 2)}));
}

TEST_F(BaselineTest, SameBankFailsOnRowColumnBankFaults)
{
    SymbolStripedScheme s(StripingMode::SameBank);
    EXPECT_TRUE(unc(s, {rowFault(0, 1, 2, 3)}));
    EXPECT_TRUE(unc(s, {columnFault(0, 1, 2, 7)}));
    EXPECT_TRUE(unc(s, {bankFault(0, 1, 2)}));
    EXPECT_TRUE(unc(s, {channelFault(0, 1)}));
}

TEST_F(BaselineTest, SameBankFailsOnDataTsvFault)
{
    // DTSV d corrupts bits d and d+256: two different symbols.
    SymbolStripedScheme s(StripingMode::SameBank);
    EXPECT_TRUE(unc(s, {dataTsvFault(0, 1, 5)}));
}

TEST_F(BaselineTest, SameBankTwoBitFaultsSameLineFail)
{
    SymbolStripedScheme s(StripingMode::SameBank);
    EXPECT_TRUE(
        unc(s, {bitFault(0, 1, 2, 3, 4, 5), bitFault(0, 1, 2, 3, 4, 100)}));
}

TEST_F(BaselineTest, SameBankTwoBitFaultsDifferentLinesOk)
{
    SymbolStripedScheme s(StripingMode::SameBank);
    EXPECT_FALSE(
        unc(s, {bitFault(0, 1, 2, 3, 4, 5), bitFault(0, 1, 2, 3, 5, 5)}));
    EXPECT_FALSE(
        unc(s, {bitFault(0, 1, 2, 3, 4, 5), bitFault(0, 2, 2, 3, 4, 5)}));
}

TEST_F(BaselineTest, SameBankEccDieFaultAloneOk)
{
    SymbolStripedScheme s(StripingMode::SameBank);
    EXPECT_FALSE(unc(s, {bankFault(0, ecc(), 3)}));
}

TEST_F(BaselineTest, SameBankDataPlusEccOverlapFails)
{
    SymbolStripedScheme s(StripingMode::SameBank);
    // Bit fault in bank 3 and loss of the metadata bank mirroring it.
    EXPECT_TRUE(
        unc(s, {bitFault(0, 1, 3, 10, 2, 0), bankFault(0, ecc(), 3)}));
    // Different bank index: checks for the faulty line are intact.
    EXPECT_FALSE(
        unc(s, {bitFault(0, 1, 3, 10, 2, 0), bankFault(0, ecc(), 4)}));
}

// -------------------------------------------------------------- AcrossBanks

TEST_F(BaselineTest, AcrossBanksToleratesAnySingleBankFault)
{
    SymbolStripedScheme s(StripingMode::AcrossBanks);
    EXPECT_FALSE(unc(s, {bankFault(0, 1, 2)}));
    EXPECT_FALSE(unc(s, {rowFault(0, 1, 2, 3)}));
    EXPECT_FALSE(unc(s, {columnFault(0, 1, 2, 7)}));
    EXPECT_FALSE(unc(s, {wordFault(0, 1, 2, 3, 4, 2)}));
}

TEST_F(BaselineTest, AcrossBanksFailsOnMultiBankFaults)
{
    SymbolStripedScheme s(StripingMode::AcrossBanks);
    EXPECT_TRUE(unc(s, {channelFault(0, 1)}));
    EXPECT_TRUE(unc(s, {dataTsvFault(0, 1, 5)}));
    EXPECT_TRUE(unc(s, {addrTsvRowFault(0, 1, 4, 0)}));
}

TEST_F(BaselineTest, AcrossBanksTwoBankFaultsSameDieFail)
{
    SymbolStripedScheme s(StripingMode::AcrossBanks);
    EXPECT_TRUE(unc(s, {bankFault(0, 1, 2), bankFault(0, 1, 5)}));
}

TEST_F(BaselineTest, AcrossBanksTwoBankFaultsDifferentDiesOk)
{
    SymbolStripedScheme s(StripingMode::AcrossBanks);
    EXPECT_FALSE(unc(s, {bankFault(0, 1, 2), bankFault(0, 2, 2)}));
    EXPECT_FALSE(unc(s, {bankFault(0, 1, 2), bankFault(1, 1, 2)}));
}

TEST_F(BaselineTest, AcrossBanksRowOverlapMatters)
{
    SymbolStripedScheme s(StripingMode::AcrossBanks);
    // Same die, different banks, same row: two symbols of one codeword.
    EXPECT_TRUE(unc(s, {rowFault(0, 1, 2, 50), rowFault(0, 1, 3, 50)}));
    // Same die, different banks, different rows: disjoint codewords.
    EXPECT_FALSE(unc(s, {rowFault(0, 1, 2, 50), rowFault(0, 1, 3, 51)}));
}

// ----------------------------------------------------------- AcrossChannels

TEST_F(BaselineTest, AcrossChannelsToleratesWholeChannelFault)
{
    SymbolStripedScheme s(StripingMode::AcrossChannels);
    EXPECT_FALSE(unc(s, {channelFault(0, 1)}));
    EXPECT_FALSE(unc(s, {dataTsvFault(0, 1, 5)}));
    EXPECT_FALSE(unc(s, {addrTsvRowFault(0, 1, 4, 0)}));
    EXPECT_FALSE(unc(s, {bankFault(0, 1, 2)}));
}

TEST_F(BaselineTest, AcrossChannelsTwoChannelsOverlappingFail)
{
    SymbolStripedScheme s(StripingMode::AcrossChannels);
    EXPECT_TRUE(unc(s, {channelFault(0, 1), channelFault(0, 2)}));
    EXPECT_TRUE(unc(s, {bankFault(0, 1, 2), bankFault(0, 2, 2)}));
    // Bank fault and a bit fault inside its codeword shadow.
    EXPECT_TRUE(unc(s, {bankFault(0, 1, 2), bitFault(0, 3, 2, 9, 9, 9)}));
}

TEST_F(BaselineTest, AcrossChannelsDisjointExtentsOk)
{
    SymbolStripedScheme s(StripingMode::AcrossChannels);
    // Different bank indices -> different codewords.
    EXPECT_FALSE(unc(s, {bankFault(0, 1, 2), bankFault(0, 2, 3)}));
    // Different stacks never share a codeword.
    EXPECT_FALSE(unc(s, {channelFault(0, 1), channelFault(1, 1)}));
}

TEST_F(BaselineTest, AcrossChannelsSameChannelAccumulationOk)
{
    SymbolStripedScheme s(StripingMode::AcrossChannels);
    // Everything in one channel stays one symbol position.
    EXPECT_FALSE(unc(s, {channelFault(0, 1), bankFault(0, 1, 2),
                         rowFault(0, 1, 3, 7)}));
}

// ------------------------------------------------------------------- BCH

TEST_F(BaselineTest, BchToleratesUpToSixBits)
{
    Bch6EC7EDScheme s;
    EXPECT_FALSE(unc(s, {bitFault(0, 1, 2, 3, 4, 5)}));
    // Data-TSV fault is only 2 bits per line: BCH-6 survives it.
    EXPECT_FALSE(unc(s, {dataTsvFault(0, 1, 5)}));
    // Three faults, same line, 1+1+2 bits.
    EXPECT_FALSE(unc(s, {bitFault(0, 1, 2, 3, 4, 5),
                         bitFault(0, 1, 2, 3, 4, 99)}));
}

TEST_F(BaselineTest, BchFailsOnLargeGranularity)
{
    Bch6EC7EDScheme s;
    EXPECT_TRUE(unc(s, {wordFault(0, 1, 2, 3, 4, 1)})); // 64 bits
    EXPECT_TRUE(unc(s, {rowFault(0, 1, 2, 3)}));
    EXPECT_TRUE(unc(s, {columnFault(0, 1, 2, 3)}));
    EXPECT_TRUE(unc(s, {bankFault(0, 1, 2)}));
}

TEST_F(BaselineTest, BchPairBudget)
{
    Bch6EC7EDScheme s;
    // Two DTSV faults on the same lines: 2 + 2 = 4 bits <= 6.
    EXPECT_FALSE(unc(s, {dataTsvFault(0, 1, 5), dataTsvFault(0, 1, 9)}));
    // Four DTSV faults: pairwise sums stay at 4 <= 6 (pairwise model).
    EXPECT_FALSE(unc(s, {dataTsvFault(0, 1, 5), dataTsvFault(0, 1, 9),
                         dataTsvFault(0, 1, 13)}));
}

TEST_F(BaselineTest, BchEccDieLoss)
{
    Bch6EC7EDScheme s;
    EXPECT_FALSE(unc(s, {bankFault(0, ecc(), 2)}));
    EXPECT_TRUE(
        unc(s, {bitFault(0, 1, 2, 3, 4, 5), bankFault(0, ecc(), 2)}));
}

// ------------------------------------------------------------------ RAID-5

TEST_F(BaselineTest, Raid5ToleratesAnySingleChannelDamage)
{
    Raid5Scheme s;
    EXPECT_FALSE(unc(s, {channelFault(0, 1)}));
    EXPECT_FALSE(unc(s, {bankFault(0, 1, 2)}));
    EXPECT_FALSE(unc(s, {rowFault(0, 1, 2, 3)}));
}

TEST_F(BaselineTest, Raid5FailsOnCrossChannelOverlap)
{
    Raid5Scheme s;
    EXPECT_TRUE(unc(s, {bankFault(0, 1, 2), bankFault(0, 2, 2)}));
    EXPECT_TRUE(unc(s, {channelFault(0, 1), bitFault(0, 2, 0, 0, 0, 0)}));
    EXPECT_FALSE(unc(s, {bankFault(0, 1, 2), bankFault(0, 2, 3)}));
    EXPECT_FALSE(unc(s, {bankFault(0, 1, 2), bankFault(1, 2, 2)}));
}

// ------------------------------------------------------------ misc/common

TEST_F(BaselineTest, NamesIdentifyScheme)
{
    EXPECT_EQ(SymbolStripedScheme(StripingMode::SameBank).name(),
              "SSC-Same-Bank");
    EXPECT_EQ(SymbolStripedScheme(StripingMode::AcrossChannels).name(),
              "SSC-Across-Channels");
    EXPECT_EQ(Bch6EC7EDScheme().name(), "BCH-6EC7ED");
    EXPECT_EQ(Raid5Scheme().name(), "RAID-5");
}

TEST_F(BaselineTest, EmptyFaultSetCorrectableEverywhere)
{
    SymbolStripedScheme sb(StripingMode::SameBank);
    SymbolStripedScheme ab(StripingMode::AcrossBanks);
    SymbolStripedScheme ac(StripingMode::AcrossChannels);
    Bch6EC7EDScheme bch;
    Raid5Scheme raid;
    EXPECT_FALSE(unc(sb, {}));
    EXPECT_FALSE(unc(ab, {}));
    EXPECT_FALSE(unc(ac, {}));
    EXPECT_FALSE(unc(bch, {}));
    EXPECT_FALSE(unc(raid, {}));
}

} // namespace
} // namespace citadel
