/**
 * @file
 * Tests for the DRAM timing model: latency composition, row-buffer
 * behavior, striping fan-out, bank conflicts and write queuing.
 */

#include <gtest/gtest.h>

#include "sim/memory_system.h"

namespace citadel {
namespace {

class MemTest : public ::testing::Test
{
  protected:
    SimConfig cfg_;

    /** Run ticks until the read with `token` completes; returns the
     *  completion cycle. */
    u64
    runUntilDone(MemorySystem &mem, u64 token, u64 start = 0,
                 u64 limit = 100000)
    {
        for (u64 cycle = start; cycle < limit; ++cycle) {
            mem.tick(cycle);
            for (u64 t : mem.drainCompletedReads())
                if (t == token)
                    return cycle;
        }
        ADD_FAILURE() << "request did not complete";
        return limit;
    }
};

TEST_F(MemTest, ColdReadLatencyIsActPlusCas)
{
    MemorySystem mem(cfg_);
    const u64 token = mem.issueRead(LineAddr{0}, 0);
    const u64 done = runUntilDone(mem, token);
    // tRCD + tCAS + tBURST = 9 + 9 + 1 = 19 for a cold bank.
    EXPECT_EQ(done, 19u);
    EXPECT_EQ(mem.counters().activates, 1u);
    EXPECT_EQ(mem.counters().rowMisses, 1u);
}

TEST_F(MemTest, RowHitIsFasterThanRowMiss)
{
    MemorySystem mem(cfg_);
    const u64 t1 = mem.issueRead(LineAddr{0}, 0);
    const u64 d1 = runUntilDone(mem, t1);
    // Line 1 is the next slot of the same open row.
    const u64 t2 = mem.issueRead(LineAddr{1}, d1 + 1);
    const u64 d2 = runUntilDone(mem, t2, d1 + 1);
    const u64 hit_latency = d2 - (d1 + 1);
    EXPECT_LT(hit_latency, 19u);
    EXPECT_EQ(mem.counters().activates, 1u);
    EXPECT_EQ(mem.counters().rowHits, 1u);
}

TEST_F(MemTest, RowConflictPaysPrecharge)
{
    MemorySystem mem(cfg_);
    AddressMap map(cfg_.geom);
    // Two lines in the same bank, different rows.
    LineCoord a = map.lineToCoord(LineAddr{0});
    LineCoord b = a;
    b.row = RowId{a.row.value() + 1};
    const u64 t1 = mem.issueRead(map.coordToLine(a), 0);
    const u64 d1 = runUntilDone(mem, t1);
    const u64 t2 = mem.issueRead(map.coordToLine(b), d1 + 1);
    const u64 d2 = runUntilDone(mem, t2, d1 + 1);
    // The second access must wait for tRAS before precharging.
    EXPECT_GT(d2 - (d1 + 1), 19u);
    EXPECT_EQ(mem.counters().activates, 2u);
}

TEST_F(MemTest, StripingFanoutCountsBursts)
{
    for (StripingMode mode :
         {StripingMode::SameBank, StripingMode::AcrossBanks,
          StripingMode::AcrossChannels}) {
        cfg_.striping = mode;
        MemorySystem mem(cfg_);
        AddressMap map(cfg_.geom);
        const u64 token = mem.issueRead(LineAddr{0}, 0);
        runUntilDone(mem, token);
        EXPECT_EQ(mem.counters().readBursts, map.fanout(mode))
            << stripingModeName(mode);
        // Total bytes moved are one line regardless of striping.
        EXPECT_EQ(mem.counters().bytesRead, cfg_.geom.lineBytes);
    }
}

TEST_F(MemTest, AcrossBanksActivatesEveryBank)
{
    cfg_.striping = StripingMode::AcrossBanks;
    MemorySystem mem(cfg_);
    const u64 token = mem.issueRead(LineAddr{0}, 0);
    runUntilDone(mem, token);
    EXPECT_EQ(mem.counters().activates, cfg_.geom.banksPerChannel);
}

TEST_F(MemTest, AcrossChannelsUsesOneBankPerChannel)
{
    cfg_.striping = StripingMode::AcrossChannels;
    MemorySystem mem(cfg_);
    const u64 token = mem.issueRead(LineAddr{0}, 0);
    const u64 done = runUntilDone(mem, token);
    EXPECT_EQ(mem.counters().activates, cfg_.geom.channelsPerStack);
    // Channel-parallel activation: latency close to a single access,
    // not 8x (the banks are in different channels).
    EXPECT_LT(done, 2 * 19u);
}

TEST_F(MemTest, AcrossBanksActivatesInLockstep)
{
    // The striped mapping issues one multi-bank activate: the line
    // completes at near single-access latency; the cost is 8x
    // activation energy, not tRRD-serialized latency (Section II-E).
    cfg_.striping = StripingMode::AcrossBanks;
    MemorySystem mem(cfg_);
    const u64 token = mem.issueRead(LineAddr{0}, 0);
    const u64 done = runUntilDone(mem, token);
    EXPECT_LE(done, 19u + timing::tBURST);
    EXPECT_EQ(mem.counters().activates, cfg_.geom.banksPerChannel);
}

TEST_F(MemTest, AcrossBanksConflictsAcrossRequests)
{
    // Two across-banks lines at different rows of the same channel
    // collide on the whole bank set: the second must wait out the row
    // cycle -- the loss of bank-level parallelism (Section II-E).
    cfg_.striping = StripingMode::AcrossBanks;
    MemorySystem mem(cfg_);
    AddressMap map(cfg_.geom);
    LineCoord a = map.lineToCoord(LineAddr{0});
    LineCoord b = a;
    b.row = RowId{a.row.value() + 1};
    const u64 t1 = mem.issueRead(map.coordToLine(a), 0);
    const u64 t2 = mem.issueRead(map.coordToLine(b), 0);
    (void)t1;
    const u64 done = runUntilDone(mem, t2);
    EXPECT_GE(done, timing::tRAS); // waited for the row cycle
}

TEST_F(MemTest, WritesAreAcceptedUpToCap)
{
    MemorySystem mem(cfg_);
    u32 accepted = 0;
    while (mem.canAcceptWrite(LineAddr{0}) && accepted < 1000) {
        mem.issueWrite(LineAddr{0}, 0);
        ++accepted;
    }
    EXPECT_EQ(accepted, kWriteQueueCap);
}

TEST_F(MemTest, WritesDrainEventually)
{
    MemorySystem mem(cfg_);
    for (int i = 0; i < 8; ++i)
        mem.issueWrite(LineAddr{static_cast<u64>(i)}, 0);
    for (u64 cycle = 0; cycle < 10000 && mem.pending() > 0; ++cycle)
        mem.tick(cycle);
    EXPECT_EQ(mem.pending(), 0u);
    EXPECT_EQ(mem.counters().writeBursts, 8u);
    EXPECT_EQ(mem.counters().bytesWritten, 8u * cfg_.geom.lineBytes);
}

TEST_F(MemTest, ReadsPrioritizedOverWrites)
{
    MemorySystem mem(cfg_);
    // A few writes queued first, then a read: the read should not wait
    // for the whole write queue (it is picked first at low pressure).
    for (int i = 0; i < 4; ++i)
        mem.issueWrite(LineAddr{0}, 0);
    const u64 token = mem.issueRead(LineAddr{0}, 0);
    const u64 done = runUntilDone(mem, token);
    EXPECT_LE(done, 25u);
}

TEST_F(MemTest, IndependentChannelsProceedInParallel)
{
    MemorySystem mem(cfg_);
    // Lines 4 apart hit 8 different channels.
    std::vector<u64> tokens;
    for (u64 i = 0; i < 8; ++i)
        tokens.push_back(mem.issueRead(LineAddr{i * 4}, 0));
    u64 last = 0;
    std::size_t done_count = 0;
    for (u64 cycle = 0; cycle < 1000 && done_count < tokens.size();
         ++cycle) {
        mem.tick(cycle);
        for (u64 t : mem.drainCompletedReads()) {
            (void)t;
            ++done_count;
            last = cycle;
        }
    }
    ASSERT_EQ(done_count, 8u);
    EXPECT_EQ(last, 19u); // all in parallel, same latency
}

TEST_F(MemTest, ArrivalWakesSleepingQueue)
{
    // Row Q of a bank opens at cycle 0; the bank cannot activate again
    // before nextActAt = tRAS + tRP. A read to another row of the bank
    // is then no candidate, so the pick at cycle 1 finds nothing and
    // the read queue sleeps until nextActAt. A read to the open row Q
    // arriving meanwhile is a candidate at once: it must issue on its
    // arrival tick, as a row hit, long before nextActAt.
    MemorySystem mem(cfg_);
    AddressMap map(cfg_.geom);
    const LineCoord open = map.lineToCoord(LineAddr{0});
    LineCoord miss = open;
    miss.row = RowId{open.row.value() + 1};
    LineCoord hit = open;
    hit.col = ColId{open.col.value() + 1};

    mem.issueRead(map.coordToLine(open), 0);
    mem.tick(0);
    mem.issueRead(map.coordToLine(miss), 1);
    mem.tick(1);
    mem.tick(2);
    ASSERT_EQ(mem.counters().readBursts, 1u);

    mem.issueRead(map.coordToLine(hit), 3);
    EXPECT_EQ(mem.nextEventCycle(3), 3u);
    mem.tick(3);
    EXPECT_EQ(mem.counters().readBursts, 2u);
    EXPECT_EQ(mem.counters().rowHits, 1u);
    EXPECT_EQ(mem.pending(), 1u); // the row-miss read still waits
}

TEST_F(MemTest, WriteIssueWakesReadQueue)
{
    // Row Q of a bank opens at cycle 0, and a read to row R of the same
    // bank then sleeps until the bank's nextActAt. Half a write queue
    // of writes to R arrives, so writes pick first: at nextActAt a
    // write, not the older read, opens R. The queued read now targets
    // the open row and must issue on the very next tick, as a row hit.
    MemorySystem mem(cfg_);
    AddressMap map(cfg_.geom);
    const LineCoord q = map.lineToCoord(LineAddr{0});
    LineCoord r = q;
    r.row = RowId{q.row.value() + 1};

    mem.issueRead(map.coordToLine(q), 0);
    mem.tick(0);
    mem.issueRead(map.coordToLine(r), 1);
    mem.tick(1);
    for (u32 i = 0; i < kWriteQueueCap / 2; ++i)
        mem.issueWrite(map.coordToLine(r), 2);

    u64 cycle = 2;
    while (mem.counters().writeBursts == 0 && cycle < 1000)
        mem.tick(cycle++);
    EXPECT_EQ(cycle - 1, timing::tRAS + timing::tRP); // nextActAt
    ASSERT_EQ(mem.counters().readBursts, 1u);

    EXPECT_EQ(mem.nextEventCycle(cycle), cycle);
    mem.tick(cycle);
    EXPECT_EQ(mem.counters().readBursts, 2u);
    EXPECT_EQ(mem.counters().writeBursts, 1u);
    EXPECT_EQ(mem.counters().rowHits, 1u);
}

TEST_F(MemTest, PendingTracksQueueDepth)
{
    MemorySystem mem(cfg_);
    EXPECT_EQ(mem.pending(), 0u);
    mem.issueRead(LineAddr{0}, 0);
    EXPECT_EQ(mem.pending(), 1u);
    cfg_.striping = StripingMode::AcrossBanks;
    MemorySystem striped(cfg_);
    striped.issueRead(LineAddr{0}, 0);
    EXPECT_EQ(striped.pending(), 8u);
}

} // namespace
} // namespace citadel
