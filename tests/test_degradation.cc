/**
 * @file
 * Degradation-ladder and control-plane self-protection tests.
 *
 * Units first (RetirementMap steering, DegradationLadder rung
 * escalation, BoundedPoisonSet cap semantics, ProtectedMetaStore scrub
 * outcomes), then the datapath end-to-end scenarios the issue names:
 * spare exhaustion past the 4-row/2-bank DDS budget escalating through
 * SparingDenied to bank retirement with steered reads, and metadata
 * record loss reactivating the covered fault with the no-overclaim
 * differential invariant held throughout.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fault_builders.h"
#include "ras/live_datapath.h"
#include "ras/poison_set.h"

namespace citadel {
namespace {

using namespace testing_helpers;

// ------------------------------------------------------------------
// RetirementMap: steering and capacity accounting.
// ------------------------------------------------------------------

class RetirementMapTest : public ::testing::Test
{
  protected:
    StackGeometry geom_ = StackGeometry::tiny();
    RetirementMap map_{geom_};

    LineCoord
    at(u32 ch, u32 b, u32 r, u32 c) const
    {
        return {StackId{0}, ChannelId{ch}, BankId{b}, RowId{r},
                ColId{c}};
    }
};

TEST_F(RetirementMapTest, OfflinedRowSteersDeterministically)
{
    const LineCoord c = at(0, 0, 5, 1);
    EXPECT_FALSE(map_.retired(c));
    EXPECT_EQ(map_.route(c), c); // healthy coordinates pass through

    EXPECT_TRUE(map_.offlineRow(c.stack, c.channel, c.bank, c.row));
    EXPECT_FALSE(map_.offlineRow(c.stack, c.channel, c.bank, c.row));
    EXPECT_TRUE(map_.retired(c));

    const LineCoord r1 = map_.route(c);
    const LineCoord r2 = map_.route(c);
    EXPECT_EQ(r1, r2); // steering is deterministic
    EXPECT_FALSE(map_.retired(r1));
    EXPECT_NE(r1, c);
}

TEST_F(RetirementMapTest, CapacityCountsRegionsOnce)
{
    // tiny(): 2 ch x 2 banks x 64 rows x 4 lines/row = 1024 lines.
    EXPECT_TRUE(map_.retireBank(StackId{0}, ChannelId{1}, BankId{0}));
    EXPECT_EQ(map_.retiredLines(), 256u);
    EXPECT_DOUBLE_EQ(map_.capacityFraction(), 0.75);

    // An offlined row inside the retired bank must not double-count.
    map_.offlineRow(StackId{0}, ChannelId{1}, BankId{0}, RowId{3});
    EXPECT_EQ(map_.retiredLines(), 256u);

    // Degrading the channel swallows the bank already retired in it.
    EXPECT_TRUE(map_.degradeChannel(StackId{0}, ChannelId{1}));
    EXPECT_EQ(map_.retiredLines(), 512u);
    EXPECT_DOUBLE_EQ(map_.capacityFraction(), 0.5);
    EXPECT_EQ(map_.retiredBanksIn(StackId{0}, ChannelId{1}), 1u);
}

TEST_F(RetirementMapTest, RouteWithNowhereLeftReturnsInput)
{
    for (u32 ch = 0; ch < geom_.channelsPerStack; ++ch)
        for (u32 b = 0; b < geom_.banksPerChannel; ++b)
            map_.retireBank(StackId{0}, ChannelId{ch}, BankId{b});
    const LineCoord c = at(0, 1, 9, 0);
    EXPECT_TRUE(map_.retired(c));
    EXPECT_EQ(map_.route(c), c); // every bank gone: nowhere to steer
}

TEST_F(RetirementMapTest, SerializeRoundTripsExactly)
{
    map_.offlineRow(StackId{0}, ChannelId{0}, BankId{1}, RowId{7});
    map_.retireBank(StackId{0}, ChannelId{1}, BankId{1});
    ByteSink sink;
    map_.saveState(sink);

    RetirementMap other(geom_);
    ByteSource src(sink.bytes());
    other.loadState(src);
    EXPECT_EQ(src.remaining(), 0u);
    EXPECT_TRUE(other.rowOffline(StackId{0}, ChannelId{0}, BankId{1},
                                 RowId{7}));
    EXPECT_TRUE(other.bankRetired(StackId{0}, ChannelId{1}, BankId{1}));
    EXPECT_EQ(other.retiredLines(), map_.retiredLines());

    ByteSink again;
    other.saveState(again);
    EXPECT_EQ(again.bytes(), sink.bytes());
}

// ------------------------------------------------------------------
// DegradationLadder: rung escalation.
// ------------------------------------------------------------------

TEST(DegradationLadderTest, PageCapEscalatesToBankThenChannel)
{
    DegradationOptions opts;
    opts.pagesPerBankCap = 2;
    opts.retiredBanksPerChannelCap = 1;
    DegradationLadder ladder(StackGeometry::tiny(), opts);

    const LineCoord a{StackId{0}, ChannelId{0}, BankId{0}, RowId{1},
                      ColId{0}};
    DegradationLadder::Action act = ladder.onDue(a);
    EXPECT_TRUE(act.rowOfflined);
    EXPECT_FALSE(act.bankRetired);

    // Same row again: already offline, nothing climbs.
    EXPECT_FALSE(ladder.onDue(a).any());

    // Second distinct page hits the per-bank cap; with the channel cap
    // at one retired bank the same event climbs both rungs.
    const LineCoord b{StackId{0}, ChannelId{0}, BankId{0}, RowId{2},
                      ColId{0}};
    act = ladder.onDue(b);
    EXPECT_TRUE(act.rowOfflined);
    EXPECT_TRUE(act.bankRetired);
    EXPECT_TRUE(act.channelDegraded);
    EXPECT_TRUE(ladder.map().channelDegraded(StackId{0}, ChannelId{0}));
}

TEST(DegradationLadderTest, SparingDeniedRetiresBankImmediately)
{
    DegradationLadder ladder(StackGeometry::tiny(), DegradationOptions{});
    const DegradationLadder::Action act =
        ladder.onSparingDenied(StackId{0}, ChannelId{1}, BankId{1});
    EXPECT_TRUE(act.bankRetired);
    EXPECT_FALSE(act.channelDegraded);
    EXPECT_TRUE(ladder.map().bankRetired(StackId{0}, ChannelId{1},
                                         BankId{1}));
    // Retiring the same bank twice does not climb again.
    EXPECT_FALSE(
        ladder.onSparingDenied(StackId{0}, ChannelId{1}, BankId{1})
            .any());
}

TEST(DegradationLadderTest, RefaultStrikesAccumulateToRetirement)
{
    DegradationOptions opts;
    opts.strikesPerBank = 3;
    DegradationLadder ladder(StackGeometry::tiny(), opts);

    EXPECT_FALSE(
        ladder.onRefault(StackId{0}, ChannelId{0}, BankId{1}).any());
    EXPECT_FALSE(
        ladder.onRefault(StackId{0}, ChannelId{0}, BankId{1}).any());
    const DegradationLadder::Action act =
        ladder.onRefault(StackId{0}, ChannelId{0}, BankId{1});
    EXPECT_TRUE(act.bankRetired);
}

TEST(DegradationLadderTest, SerializeRoundTripsStrikes)
{
    DegradationOptions opts;
    opts.strikesPerBank = 3;
    DegradationLadder ladder(StackGeometry::tiny(), opts);
    ladder.onRefault(StackId{0}, ChannelId{1}, BankId{0});
    ladder.onRefault(StackId{0}, ChannelId{1}, BankId{0});
    ladder.onDue({StackId{0}, ChannelId{0}, BankId{0}, RowId{4},
                  ColId{0}});

    ByteSink sink;
    ladder.saveState(sink);
    DegradationLadder other(StackGeometry::tiny(), opts);
    ByteSource src(sink.bytes());
    other.loadState(src);
    EXPECT_EQ(src.remaining(), 0u);

    // The restored ladder is one strike away from retirement, exactly
    // like the original.
    const DegradationLadder::Action act =
        other.onRefault(StackId{0}, ChannelId{1}, BankId{0});
    EXPECT_TRUE(act.bankRetired);
    EXPECT_TRUE(other.map().rowOffline(StackId{0}, ChannelId{0},
                                       BankId{0}, RowId{4}));
}

// ------------------------------------------------------------------
// BoundedPoisonSet: documented memory bound + over-approximation.
// ------------------------------------------------------------------

TEST(BoundedPoisonSetTest, InsertDedupesAndCoalesces)
{
    BoundedPoisonSet set(16);
    EXPECT_TRUE(set.insert(LineAddr{10}));
    EXPECT_FALSE(set.insert(LineAddr{10})); // dedup: not fresh
    EXPECT_TRUE(set.insert(LineAddr{12}));
    EXPECT_EQ(set.runCount(), 2u);

    // Filling the gap coalesces [10,11) + [11,12) + [12,13) into one.
    EXPECT_TRUE(set.insert(LineAddr{11}));
    EXPECT_EQ(set.runCount(), 1u);
    EXPECT_TRUE(set.contains(LineAddr{10}));
    EXPECT_TRUE(set.contains(LineAddr{11}));
    EXPECT_TRUE(set.contains(LineAddr{12}));
    EXPECT_FALSE(set.contains(LineAddr{13}));
    EXPECT_FALSE(set.overApproximated());
}

TEST(BoundedPoisonSetTest, CapMergesSmallestGapAndOverApproximates)
{
    BoundedPoisonSet set(2);
    set.insert(LineAddr{0});
    set.insert(LineAddr{100});
    EXPECT_EQ(set.runCount(), 2u);
    EXPECT_FALSE(set.overApproximated());

    // A third run violates the cap; the smallest gap (100 -> 103) is
    // swallowed, so 101-102 now read as poisoned: over-approximation,
    // never under-approximation.
    set.insert(LineAddr{103});
    EXPECT_LE(set.runCount(), 2u);
    EXPECT_TRUE(set.overApproximated());
    EXPECT_TRUE(set.contains(LineAddr{0}));
    EXPECT_TRUE(set.contains(LineAddr{100}));
    EXPECT_TRUE(set.contains(LineAddr{103}));
    EXPECT_TRUE(set.contains(LineAddr{101})); // swallowed gap
    EXPECT_FALSE(set.contains(LineAddr{50})); // big gap survives
}

TEST(BoundedPoisonSetTest, RunCountNeverExceedsCapUnderStorm)
{
    BoundedPoisonSet set(8);
    // Worst case for a run representation: strided addresses that
    // never coalesce naturally.
    for (u64 i = 0; i < 1000; ++i)
        set.insert(LineAddr{i * 7});
    EXPECT_LE(set.runCount(), 8u);
    EXPECT_TRUE(set.overApproximated());
    for (u64 i = 0; i < 1000; ++i)
        EXPECT_TRUE(set.contains(LineAddr{i * 7})) << i;
}

TEST(BoundedPoisonSetTest, SerializeRoundTripsExactly)
{
    BoundedPoisonSet set(4);
    for (u64 a : {5u, 6u, 90u, 200u, 300u, 400u})
        set.insert(LineAddr{a});
    ByteSink sink;
    set.saveState(sink);

    BoundedPoisonSet other(4);
    ByteSource src(sink.bytes());
    other.loadState(src);
    EXPECT_EQ(src.remaining(), 0u);
    EXPECT_EQ(other.runCount(), set.runCount());
    EXPECT_EQ(other.overApproximated(), set.overApproximated());
    ByteSink again;
    other.saveState(again);
    EXPECT_EQ(again.bytes(), sink.bytes());
}

// ------------------------------------------------------------------
// ProtectedMetaStore: the scrub escalation order.
// ------------------------------------------------------------------

class MetaStoreTest : public ::testing::Test
{
  protected:
    ProtectedMetaStore::RecordKey
    rrtKey(u32 unit, u32 slot) const
    {
        return {MetaTarget::RrtEntry, StackId{0}, UnitId{unit},
                MetaSlotId{slot}};
    }

    MetaFault
    hit(u32 unit, u32 slot, u64 flip, u64 mirror_flip,
        bool transient) const
    {
        MetaFault f;
        f.target = MetaTarget::RrtEntry;
        f.stack = StackId{0};
        f.unit = UnitId{unit};
        f.slot = MetaSlotId{slot};
        f.flipMask = flip;
        f.mirrorFlipMask = mirror_flip;
        f.transient = transient;
        return f;
    }
};

TEST_F(MetaStoreTest, SingleBitFlipIsCorrectedInPlace)
{
    ProtectedMetaStore store;
    store.install(rrtKey(0, 0), 0xDEADBEEFu);
    ASSERT_EQ(store.applyFault(hit(0, 0, 1ull << 13, 0, false)),
              ProtectedMetaStore::ApplyResult::Applied);

    const ProtectedMetaStore::ScrubOutcome out = store.scrub();
    EXPECT_EQ(out.checked, 1u);
    EXPECT_EQ(out.corrected, 1u);
    EXPECT_EQ(out.retries, 0u); // SECDED fixed it; no retry needed
    EXPECT_TRUE(out.lost.empty());
    EXPECT_EQ(store.payload(rrtKey(0, 0)), 0xDEADBEEFu);

    // A second scrub finds nothing left to fix.
    EXPECT_EQ(store.scrub().corrected, 0u);
}

TEST_F(MetaStoreTest, TransientMultiBitClearsOnRetryWithBackoff)
{
    ProtectedMetaStore::Options opts;
    opts.retryMax = 3;
    opts.backoffCycles = 16;
    ProtectedMetaStore store(opts);
    store.install(rrtKey(1, 2), 0x1234u);
    store.applyFault(hit(1, 2, 0b101, 0, /*transient=*/true));

    const ProtectedMetaStore::ScrubOutcome out = store.scrub();
    EXPECT_GE(out.retries, 1u);
    EXPECT_GE(out.backoffCyclesSpent, 16u);
    EXPECT_EQ(out.mirrorRestores, 0u); // retry alone recovered it
    EXPECT_TRUE(out.lost.empty());
    EXPECT_TRUE(store.exists(rrtKey(1, 2)));
}

TEST_F(MetaStoreTest, PermanentMultiBitRestoresFromMirror)
{
    ProtectedMetaStore::Options opts;
    opts.retryMax = 2;
    opts.backoffCycles = 8;
    ProtectedMetaStore store(opts);
    store.install(rrtKey(2, 1), 0x77u);
    store.applyFault(hit(2, 1, 0b11000, 0, /*transient=*/false));

    const ProtectedMetaStore::ScrubOutcome out = store.scrub();
    // Re-reading stuck cells cannot help: no retries are burned on
    // permanent damage, the mirror is consulted directly.
    EXPECT_EQ(out.retries, 0u);
    EXPECT_EQ(out.backoffCyclesSpent, 0u);
    EXPECT_EQ(out.mirrorRestores, 1u);
    EXPECT_TRUE(out.lost.empty());
    EXPECT_TRUE(store.exists(rrtKey(2, 1)));

    // The restore is complete: the next scrub is clean.
    const ProtectedMetaStore::ScrubOutcome again = store.scrub();
    EXPECT_EQ(again.corrected + again.retries + again.mirrorRestores,
              0u);
}

TEST_F(MetaStoreTest, CommonModeHitLosesTheRecord)
{
    ProtectedMetaStore store;
    store.install(rrtKey(3, 0), 0xABCDu);
    store.install(rrtKey(3, 1), 0xEF01u);
    store.applyFault(hit(3, 0, 0b110, 0b1010, /*transient=*/false));

    const ProtectedMetaStore::ScrubOutcome out = store.scrub();
    ASSERT_EQ(out.lost.size(), 1u);
    EXPECT_EQ(out.lost[0].packed(), rrtKey(3, 0).packed());
    EXPECT_FALSE(store.exists(rrtKey(3, 0)));
    EXPECT_TRUE(store.exists(rrtKey(3, 1))); // neighbor untouched
    EXPECT_EQ(store.size(), 1u);
}

TEST_F(MetaStoreTest, FaultOnEmptySlotIsNoRecord)
{
    ProtectedMetaStore store;
    EXPECT_EQ(store.applyFault(hit(0, 0, 1, 0, false)),
              ProtectedMetaStore::ApplyResult::NoRecord);
}

TEST_F(MetaStoreTest, SerializeCarriesPendingCorruption)
{
    ProtectedMetaStore store;
    store.install(rrtKey(0, 0), 0x42u);
    store.install(rrtKey(0, 1), 0x43u);
    store.applyFault(hit(0, 1, 0b11, 0b101, /*transient=*/false));

    ByteSink sink;
    store.saveState(sink);
    ProtectedMetaStore other;
    ByteSource src(sink.bytes());
    other.loadState(src);
    EXPECT_EQ(src.remaining(), 0u);
    EXPECT_EQ(other.size(), 2u);

    // The restored store must reach the same verdicts: slot 1 was hit
    // common-mode before the checkpoint and is lost at the next scrub.
    const ProtectedMetaStore::ScrubOutcome out = other.scrub();
    ASSERT_EQ(out.lost.size(), 1u);
    EXPECT_EQ(out.lost[0].packed(), rrtKey(0, 1).packed());
    EXPECT_TRUE(other.exists(rrtKey(0, 0)));
}

TEST_F(MetaStoreTest, LoadRejectsUnknownRecordTarget)
{
    // A record is saved as its key, target byte first, after the
    // record count; one past the last MetaTarget must be refused, not
    // restored as a target no scrub or fault path knows.
    ProtectedMetaStore store;
    store.install(rrtKey(0, 0), 0x42u);
    ByteSink sink;
    store.saveState(sink);
    std::vector<u8> bytes = sink.bytes();
    ASSERT_EQ(bytes[8], static_cast<u8>(MetaTarget::RrtEntry));
    bytes[8] = static_cast<u8>(MetaTarget::ParityCacheLine) + 1;

    ProtectedMetaStore other;
    ByteSource src(bytes);
    EXPECT_DEATH(other.loadState(src), "unknown record target 4");
}

// ------------------------------------------------------------------
// Datapath end-to-end: the issue's escalation scenarios.
// ------------------------------------------------------------------

SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.geom = StackGeometry::tiny();
    cfg.llcBytes = 1 << 14;
    cfg.cores = 2;
    cfg.insnsPerCore = 30'000;
    cfg.seed = 9;
    return cfg;
}

class LadderE2ETest : public ::testing::Test
{
  protected:
    SimConfig cfg_ = tinyConfig();
    AddressMap map_{cfg_.geom};

    LineAddr
    lineAt(u32 ch, u32 b, u32 r, u32 c) const
    {
        return map_.coordToLine({StackId{0}, ChannelId{ch}, BankId{b},
                                 RowId{r}, ColId{c}});
    }
};

TEST_F(LadderE2ETest, SpareExhaustionEscalatesToRetirementAndSteering)
{
    LiveRasOptions opts;
    opts.scrubCycles = 1000;
    // Isolate the exhaustion path from the re-fault strike heuristic.
    opts.degrade.strikesPerBank = 100;
    LiveRasDatapath dp(cfg_, opts);

    // Past the DDS budget: 5 permanent row faults in unit (ch0,b0)
    // overflow the 4 RRT slots (the 5th takes a BRT bank spare), a
    // bank fault in (ch0,b1) takes the second and last BRT slot, and a
    // bank fault in (ch1,b0) finds every spare gone.
    for (u32 r = 1; r <= 5; ++r)
        dp.scheduleFault(rowFault(0, 0, 0, r), 10);
    dp.scheduleFault(bankFault(0, 0, 1), 10);
    dp.scheduleFault(bankFault(0, 1, 0), 10);
    dp.tick(10);
    ASSERT_EQ(dp.activeFaults().size(), 7u);

    dp.tick(1000); // scrub: spare what fits, retire what does not
    const RasCounters &c = dp.counters();
    EXPECT_EQ(c.rowsSpared, 4u);
    EXPECT_EQ(c.banksSpared, 2u);
    EXPECT_GE(c.sparingDenied, 1u);
    EXPECT_EQ(c.banksRetired, 1u);
    EXPECT_EQ(c.channelsDegraded, 0u);
    EXPECT_TRUE(dp.ladder().map().bankRetired(StackId{0}, ChannelId{1},
                                              BankId{0}));
    EXPECT_TRUE(dp.activeFaults().empty()); // spared, absorbed, retired

    // Demand reads into the retired bank are steered, not DUE'd: the
    // simulator keeps running at reduced capacity.
    const DemandOutcome out = dp.onDemandRead(lineAt(1, 0, 8, 2), 1100);
    EXPECT_EQ(out.kind, DemandOutcome::Kind::Clean);
    EXPECT_EQ(c.offlinedReads, 1u);
    EXPECT_EQ(c.due, 0u);
    EXPECT_EQ(c.sdc, 0u);
    EXPECT_EQ(c.divergences, 0u);
    EXPECT_LT(dp.ladder().map().capacityFraction(), 1.0);
}

TEST_F(LadderE2ETest, RefaultedRegionRetiresAfterStrikes)
{
    LiveRasOptions opts;
    opts.scrubCycles = 1000;
    opts.degrade.strikesPerBank = 2;
    LiveRasDatapath dp(cfg_, opts);

    // First fault in the bank is repaired normally (no live entries
    // yet, so no strike is charged).
    dp.scheduleFault(rowFault(0, 0, 0, 3), 10);
    dp.tick(1000);
    EXPECT_EQ(dp.counters().rowsSpared, 1u);
    EXPECT_EQ(dp.counters().banksRetired, 0u);

    // The repaired bank faulting again and again is the "region keeps
    // re-faulting" trigger: each arrival on live remap state counts a
    // strike, and the second strike gives the bank up.
    dp.scheduleFault(rowFault(0, 0, 0, 9), 1100);
    dp.tick(1100);
    EXPECT_EQ(dp.counters().banksRetired, 0u);
    dp.scheduleFault(rowFault(0, 0, 0, 12), 1200);
    dp.tick(1200);
    EXPECT_EQ(dp.counters().banksRetired, 1u);
    EXPECT_TRUE(dp.ladder().map().bankRetired(StackId{0}, ChannelId{0},
                                              BankId{0}));
    // Retirement swallowed the still-active faults of the bank.
    EXPECT_TRUE(dp.activeFaults().empty());
    EXPECT_EQ(dp.counters().divergences, 0u);
}

TEST_F(LadderE2ETest, LostRrtRecordReactivatesAndResparesTheFault)
{
    LiveRasOptions opts;
    opts.scrubCycles = 1000;
    LiveRasDatapath dp(cfg_, opts);

    dp.scheduleFault(rowFault(0, 0, 0, 5), 10);
    dp.tick(1000); // scrub spares the row into RRT slot 0
    ASSERT_EQ(dp.counters().rowsSpared, 1u);
    const LineAddr line = lineAt(0, 0, 5, 1);
    ASSERT_TRUE(dp.lineIsRemapped(line));

    // Common-mode hit on the live RRT entry's record: both copies take
    // multi-bit damage, so scrub retries and the mirror both fail.
    MetaFault mf;
    mf.target = MetaTarget::RrtEntry;
    mf.stack = StackId{0};
    mf.unit = UnitId{0}; // (ch0, b0)
    mf.slot = MetaSlotId{0};
    mf.flipMask = 0b101;
    mf.mirrorFlipMask = 0b11000;
    dp.scheduleMetaFault(mf, 1500);

    dp.tick(2000);
    const RasCounters &c = dp.counters();
    EXPECT_EQ(c.metaFaultsInjected, 1u);
    EXPECT_EQ(c.metaRecordsLost, 1u);
    EXPECT_EQ(c.faultsReactivated, 1u);
    // The reactivated fault is re-spared in the same scrub pass, into
    // a fresh slot (the hit slot is retired as dead SRAM).
    EXPECT_EQ(c.rowsSpared, 2u);
    EXPECT_TRUE(dp.lineIsRemapped(line));
    EXPECT_EQ(dp.onDemandRead(line, 2100).kind,
              DemandOutcome::Kind::Clean);
    EXPECT_EQ(c.divergences, 0u);
    EXPECT_EQ(c.sdc, 0u);
}

TEST_F(LadderE2ETest, SingleBitMetaUpsetIsCorrectedSilently)
{
    LiveRasOptions opts;
    opts.scrubCycles = 1000;
    LiveRasDatapath dp(cfg_, opts);

    // The parity-line cache records exist from construction; flip one
    // bit of one way's primary copy.
    MetaFault mf;
    mf.target = MetaTarget::ParityCacheLine;
    mf.stack = StackId{0};
    mf.slot = MetaSlotId{3};
    mf.flipMask = 1ull << 20;
    dp.scheduleMetaFault(mf, 10);

    dp.tick(1000);
    const RasCounters &c = dp.counters();
    EXPECT_EQ(c.metaCorrected, 1u);
    EXPECT_EQ(c.metaRecordsLost, 0u);
    EXPECT_EQ(c.parityCacheRefetches, 0u);
    EXPECT_EQ(c.faultsReactivated, 0u);
}

TEST_F(LadderE2ETest, TransientMetaUpsetClearsOnRetryWithBackoff)
{
    LiveRasOptions opts;
    opts.scrubCycles = 1000;
    opts.meta.backoffCycles = 32;
    LiveRasDatapath dp(cfg_, opts);

    // Multi-bit transient strike on a parity-cache way: SECDED cannot
    // fix it, but the scrub's backed-off re-read finds it gone.
    MetaFault mf;
    mf.target = MetaTarget::ParityCacheLine;
    mf.stack = StackId{0};
    mf.slot = MetaSlotId{1};
    mf.flipMask = 0b1010;
    mf.transient = true;
    dp.scheduleMetaFault(mf, 10);

    dp.tick(1000);
    const RasCounters &c = dp.counters();
    EXPECT_GE(c.metaScrubRetries, 1u);
    EXPECT_GE(c.metaBackoffCycles, 32u);
    EXPECT_EQ(c.metaRecordsLost, 0u);
    EXPECT_EQ(c.metaMirrorRestored, 0u);
    EXPECT_EQ(c.parityCacheRefetches, 0u);
}

TEST_F(LadderE2ETest, LostParityCacheLineIsRefetchedNotEscalated)
{
    LiveRasOptions opts;
    opts.scrubCycles = 1000;
    LiveRasDatapath dp(cfg_, opts);
    const std::size_t records = dp.metaStore().size();

    MetaFault mf;
    mf.target = MetaTarget::ParityCacheLine;
    mf.stack = StackId{0};
    mf.slot = MetaSlotId{0};
    mf.flipMask = 0b110;
    mf.mirrorFlipMask = 0b1001;
    dp.scheduleMetaFault(mf, 10);

    dp.tick(1000);
    const RasCounters &c = dp.counters();
    EXPECT_EQ(c.metaRecordsLost, 1u);
    EXPECT_EQ(c.parityCacheRefetches, 1u);
    // The clean copy always lives on the parity die: the way is
    // reinstalled, nothing reactivates, no capacity is lost.
    EXPECT_EQ(dp.metaStore().size(), records);
    EXPECT_EQ(c.faultsReactivated, 0u);
    EXPECT_EQ(c.banksRetired, 0u);
}

TEST_F(LadderE2ETest, DeadTsvRegisterReactivatesAbsorbedFault)
{
    LiveRasOptions opts;
    opts.scrubCycles = 1000;
    LiveRasDatapath dp(cfg_, opts);

    // A data-TSV fault is absorbed by TSV-SWAP before it ever corrupts
    // storage; the redirection register now carries live state.
    dp.scheduleFault(dataTsvFault(0, 0, 5), 10);
    dp.tick(10);
    ASSERT_EQ(dp.counters().tsvRepairs, 1u);
    ASSERT_TRUE(dp.activeFaults().empty());

    // Common-mode hit on that register: the swap is undone and the
    // absorbed fault comes back as live corruption. With no spare path
    // left for a channel-wide fault, the ladder gives the channel up.
    MetaFault mf;
    mf.target = MetaTarget::TsvRegister;
    mf.stack = StackId{0};
    mf.channel = ChannelId{0};
    mf.flipMask = 0b11;
    mf.mirrorFlipMask = 0b110;
    dp.scheduleMetaFault(mf, 500);

    dp.tick(1000);
    const RasCounters &c = dp.counters();
    EXPECT_EQ(c.metaRecordsLost, 1u);
    EXPECT_GE(c.faultsReactivated, 1u);
    EXPECT_GE(c.sparingDenied, 1u);
    EXPECT_EQ(c.channelsDegraded, 1u);
    EXPECT_TRUE(dp.ladder().map().channelDegraded(StackId{0},
                                                  ChannelId{0}));
    EXPECT_EQ(c.divergences, 0u);
    EXPECT_EQ(c.sdc, 0u);

    // The register bank is dead SRAM now: a later TSV fault cannot be
    // absorbed there and must surface as an active fault instead.
    dp.scheduleFault(dataTsvFault(0, 0, 9), 1100);
    dp.tick(1100);
    EXPECT_EQ(dp.counters().tsvRepairs, 1u); // unchanged
}

TEST_F(LadderE2ETest, CheckpointRoundTripsLadderAndMetaState)
{
    LiveRasOptions opts;
    opts.scrubCycles = 1000;
    LiveRasDatapath dp(cfg_, opts);
    for (u32 r = 1; r <= 5; ++r)
        dp.scheduleFault(rowFault(0, 0, 0, r), 10);
    dp.scheduleFault(bankFault(0, 1, 1), 10);
    MetaFault mf;
    mf.target = MetaTarget::RrtEntry;
    mf.stack = StackId{0};
    mf.unit = UnitId{0};
    mf.slot = MetaSlotId{1};
    mf.flipMask = 0b11;
    dp.scheduleMetaFault(mf, 1500); // still pending at the checkpoint
    dp.tick(1000);
    dp.onDemandRead(lineAt(0, 0, 1, 0), 1100);

    ByteSink sink;
    dp.saveState(sink);
    LiveRasDatapath other(cfg_, opts);
    ByteSource src(sink.bytes());
    other.loadState(src);
    EXPECT_EQ(src.remaining(), 0u);
    EXPECT_EQ(other.stateFingerprint(), dp.stateFingerprint());

    // Both replicas must now evolve identically: deliver the pending
    // meta fault, scrub, and probe.
    dp.tick(2000);
    other.tick(2000);
    const DemandOutcome a = dp.onDemandRead(lineAt(0, 0, 2, 3), 2100);
    const DemandOutcome b = other.onDemandRead(lineAt(0, 0, 2, 3), 2100);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(other.stateFingerprint(), dp.stateFingerprint());
    EXPECT_EQ(other.counters().metaCorrected,
              dp.counters().metaCorrected);
}

TEST_F(LadderE2ETest, LoadStateRejectsLadderKeysOutsideTheGeometry)
{
    // A checkpoint whose ladder names a region tiny() does not have --
    // stack 5 of a one-stack device, or row 64 of a 64-row bank -- must
    // be refused by loadState. Nothing would steer around such a key,
    // but retiredLines() would count it, so capacityFraction() would
    // resume wrong (and wrap below zero once the lost lines passed the
    // total). The datapath's ladder image sits just before the meta
    // store's and the counters'; each case swaps in the image of a
    // ladder on an 8-stack tiny() that holds one bad key.
    LiveRasDatapath dp(cfg_);
    ByteSink sink;
    dp.saveState(sink);
    const std::vector<u8> &bytes = sink.bytes();
    ByteSink ladder;
    dp.ladder().saveState(ladder);
    ByteSink tail;
    dp.metaStore().saveState(tail);
    Writer{tail}(dp.counters());
    ASSERT_GE(bytes.size(), ladder.bytes().size() + tail.bytes().size());
    const std::size_t at =
        bytes.size() - tail.bytes().size() - ladder.bytes().size();
    ASSERT_TRUE(std::equal(ladder.bytes().begin(), ladder.bytes().end(),
                           bytes.begin() + static_cast<long>(at)));

    const auto withLadder = [&](const DegradationLadder &l) {
        ByteSink img;
        l.saveState(img);
        std::vector<u8> out(bytes.begin(),
                            bytes.begin() + static_cast<long>(at));
        out.insert(out.end(), img.bytes().begin(), img.bytes().end());
        out.insert(out.end(), tail.bytes().begin(), tail.bytes().end());
        return out;
    };

    StackGeometry wide = cfg_.geom;
    wide.stacks = 8;
    DegradationOptions opts;
    opts.strikesPerBank = 100;
    const StackId s5{5};

    {
        // A key inside the geometry loads, and the capacity it costs
        // survives the round trip.
        DegradationLadder good(wide, opts);
        good.map().retireBank(StackId{0}, ChannelId{1}, BankId{0});
        good.onRefault(StackId{0}, ChannelId{0}, BankId{1});
        const std::vector<u8> ok = withLadder(good);
        LiveRasDatapath other(cfg_);
        ByteSource src(ok);
        other.loadState(src);
        EXPECT_EQ(src.remaining(), 0u);
        EXPECT_DOUBLE_EQ(other.healthSignals().capacityFraction, 0.75);
    }

    const auto refused = [&](const auto &poison, const char *diag) {
        DegradationLadder bad(wide, opts);
        poison(bad);
        const std::vector<u8> corrupt = withLadder(bad);
        LiveRasDatapath other(cfg_);
        ByteSource src(corrupt);
        EXPECT_DEATH(other.loadState(src), diag);
    };
    refused([&](DegradationLadder &l) {
        l.map().offlineRow(s5, ChannelId{0}, BankId{0}, RowId{3});
    }, "offlineRows key 0x5000000000003 is outside the geometry");
    refused([&](DegradationLadder &l) {
        l.map().offlineRow(StackId{0}, ChannelId{1}, BankId{0}, RowId{64});
    }, "offlineRows key 0x10000000040 is outside the geometry");
    refused([&](DegradationLadder &l) {
        l.map().retireBank(s5, ChannelId{1}, BankId{1});
    }, "retiredBanks key 0x50101 is outside the geometry");
    refused([&](DegradationLadder &l) {
        l.map().retireBank(StackId{0}, ChannelId{0}, BankId{2});
    }, "retiredBanks key 0x2 is outside the geometry");
    refused([&](DegradationLadder &l) {
        l.map().degradeChannel(s5, ChannelId{0});
    }, "degradedChannels key 0x500 is outside the geometry");
    refused([&](DegradationLadder &l) {
        l.onRefault(s5, ChannelId{0}, BankId{1});
    }, "strikes key 0x50001 is outside the geometry");
}

} // namespace
} // namespace citadel
