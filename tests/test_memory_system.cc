/**
 * @file
 * Tests for the DRAM timing model: latency composition, row-buffer
 * behavior, striping fan-out, bank conflicts and write queuing, and
 * agreement with a rescanning model of the same scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <optional>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "sim/memory_system.h"
#include "sim/retirement.h"

namespace citadel {
namespace {

/**
 * Reference model: the scheduler before per-bank picks were cached.
 * Each bank's sub-queue is a std::deque that every FR-FCFS pick walks
 * for the oldest live reference and the oldest reference to the open
 * row, and tick() services every channel. Timing, striping, write
 * pressure, steering and token handling are MemorySystem's; it must
 * make the same decision on every cycle.
 */
class RescanningMemory
{
  public:
    static constexpr u64 kNoEvent = MemorySystem::kNoEvent;

    explicit RescanningMemory(const SimConfig &cfg)
        : cfg_(cfg), map_(cfg.geom), channels_(cfg.geom.totalChannels())
    {
        const std::size_t words = (cfg_.geom.banksPerChannel + 63) / 64;
        for (auto &ch : channels_) {
            ch.banks.resize(cfg_.geom.banksPerChannel);
            for (GroupQueue *q : {&ch.reads, &ch.writes}) {
                q->perBank.resize(cfg_.geom.banksPerChannel);
                q->bankWords.assign(words, 0);
            }
        }
        writeCapSubs_ = static_cast<u64>(kWriteQueueCap) *
                        map_.fanout(cfg_.striping);
    }

    void attachRetirement(const RetirementMap *map) { retire_ = map; }

    u64 issueRead(LineAddr line, bool ras)
    {
        u32 slot;
        if (!freeTokens_.empty()) {
            slot = freeTokens_.back();
            freeTokens_.pop_back();
        } else {
            slot = static_cast<u32>(gen_.size());
            gen_.push_back(1);
            remaining_.push_back(0);
            allocSeq_.push_back(0);
        }
        allocSeq_[slot] = readAllocSeq_++;
        const u64 token = (static_cast<u64>(gen_[slot]) << 32) | slot;
        const LineCoord coord = map_.lineToCoord(line);
        const LineCoord routed = route(coord);
        if (!(routed == coord))
            ++counters_.steeredReads;
        enqueue(routed, false, token, ras);
        return token;
    }

    bool canAcceptWrite(LineAddr line) const
    {
        for (const LineCoord &s : map_.subRequests(
                 route(map_.lineToCoord(line)), cfg_.striping))
            if (channels_[channelIndex(s)].writes.liveSlices >=
                writeCapSubs_)
                return false;
        return true;
    }

    void issueWrite(LineAddr line)
    {
        const LineCoord coord = map_.lineToCoord(line);
        const LineCoord routed = route(coord);
        if (!(routed == coord))
            ++counters_.steeredWrites;
        enqueue(routed, true, 0, false);
    }

    void tick(u64 cycle)
    {
        for (auto &ch : channels_)
            serviceChannel(ch, cycle);
        while (!completions_.empty() && completions_.top().done <= cycle) {
            const u64 token = completions_.top().token;
            completions_.pop();
            if (--remaining_[static_cast<u32>(token)] == 0)
                completed_.push_back(token);
        }
    }

    std::vector<u64> drainCompletedReads()
    {
        for (const u64 token : drained_) {
            const u32 slot = static_cast<u32>(token);
            ++gen_[slot];
            freeTokens_.push_back(slot);
        }
        drained_ = completed_;
        std::vector<u64> out;
        out.swap(completed_);
        return out;
    }

    u64 nextEventCycle(u64 now) const
    {
        u64 next = kNoEvent;
        if (!completions_.empty())
            next = std::max(now, completions_.top().done);
        for (const auto &ch : channels_) {
            for (const GroupQueue *q : {&ch.reads, &ch.writes}) {
                if (q->liveSlices == 0)
                    continue;
                if (q->wakeAt <= now)
                    return now;
                next = std::min(next, q->wakeAt);
            }
        }
        return next;
    }

    u64 pending() const { return pendingOps_; }
    const MemCounters &counters() const { return counters_; }

  private:
    static constexpr u32 kInvalidSlot = 0xFFFFFFFFu;

    struct Slice
    {
        BankId bank{};
        RowId row{};
    };

    struct Group
    {
        u64 token = 0;
        u64 seq = 0;
        u32 bytes = 0;
        bool write = false;
        bool live = false;
        u32 refs = 0;
        std::vector<Slice> slices;
    };

    struct BankRef
    {
        u32 slot = 0;
        u32 slice = 0;
    };

    struct GroupQueue
    {
        std::vector<Group> pool;
        std::vector<u32> freeSlots;
        std::vector<std::deque<BankRef>> perBank;
        std::vector<u64> bankWords;
        u64 liveSlices = 0;
        u64 wakeAt = 0;
    };

    struct BankState
    {
        std::optional<RowId> openRow;
        u64 nextActAt = 0;
        u64 nextCasAt = 0;
        i64 lastWriteCas = -1'000'000;
    };

    struct Channel
    {
        GroupQueue reads;
        GroupQueue writes;
        std::vector<BankState> banks;
        double busUntil = 0.0;
        i64 lastActAt = -1'000'000;
        u64 nextSeq = 0;
    };

    struct Pick
    {
        u32 slot = kInvalidSlot;
        u32 slice = 0;
        bool valid() const { return slot != kInvalidSlot; }
    };

    struct Completion
    {
        u64 done = 0;
        u64 seq = 0;
        u64 token = 0;
        bool operator>(const Completion &o) const
        {
            return done != o.done ? done > o.done : seq > o.seq;
        }
    };

    SimConfig cfg_;
    AddressMap map_;
    std::vector<Channel> channels_;
    MemCounters counters_;
    u64 writeCapSubs_ = 0;
    const RetirementMap *retire_ = nullptr;
    std::vector<u32> gen_, remaining_, freeTokens_;
    std::vector<u64> allocSeq_;
    u64 readAllocSeq_ = 0;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<>>
        completions_;
    std::vector<u64> completed_, drained_;
    u64 pendingOps_ = 0;

    u32 channelIndex(const LineCoord &c) const
    {
        return c.stack.value() * cfg_.geom.channelsPerStack +
               c.channel.value();
    }

    LineCoord route(const LineCoord &coord) const
    {
        if (retire_ == nullptr || retire_->empty())
            return coord;
        return retire_->route(coord);
    }

    void releaseRef(GroupQueue &q, u32 slot)
    {
        Group &g = q.pool[slot];
        if (--g.refs == 0 && !g.live) {
            g.slices.clear();
            q.freeSlots.push_back(slot);
        }
    }

    void enqueue(const LineCoord &line, bool write, u64 token, bool ras)
    {
        const auto subs = map_.subRequests(line, cfg_.striping);
        const u32 bytes =
            cfg_.geom.lineBytes / static_cast<u32>(subs.size());
        if (ras)
            counters_.rasReads += subs.size();
        if (!write)
            remaining_[static_cast<u32>(token)] =
                static_cast<u32>(subs.size());
        u32 openChannel = kInvalidSlot;
        u32 openSlot = kInvalidSlot;
        for (const LineCoord &s : subs) {
            const u32 chIdx = channelIndex(s);
            Channel &ch = channels_[chIdx];
            GroupQueue &q = write ? ch.writes : ch.reads;
            if (chIdx != openChannel) {
                openChannel = chIdx;
                if (!q.freeSlots.empty()) {
                    openSlot = q.freeSlots.back();
                    q.freeSlots.pop_back();
                } else {
                    q.pool.emplace_back();
                    openSlot = static_cast<u32>(q.pool.size() - 1);
                }
                Group &g = q.pool[openSlot];
                g.token = token;
                g.seq = ch.nextSeq++;
                g.bytes = bytes;
                g.write = write;
                g.live = true;
                g.refs = 0;
                g.slices.clear();
            }
            Group &g = q.pool[openSlot];
            const u32 sliceIdx = static_cast<u32>(g.slices.size());
            g.slices.push_back({s.bank, s.row});
            ++g.refs;
            const std::size_t b = s.bank.idx();
            q.perBank[b].push_back({openSlot, sliceIdx});
            q.bankWords[b / 64] |= 1ull << (b % 64);
            ++q.liveSlices;
            q.wakeAt = 0;
            ++pendingOps_;
        }
    }

    Pick pickCandidate(Channel &ch, GroupQueue &q, u64 cycle)
    {
        if (q.liveSlices == 0 || cycle < q.wakeAt)
            return {};
        u64 hitSeq = kNoEvent;
        u64 candSeq = kNoEvent;
        u32 hitSlot = kInvalidSlot;
        u32 candSlot = kInvalidSlot;
        u64 wake = kNoEvent;
        for (std::size_t w = 0; w < q.bankWords.size(); ++w) {
            u64 word = q.bankWords[w];
            while (word != 0) {
                const std::size_t b =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(word));
                word &= word - 1;
                auto &dq = q.perBank[b];
                while (!dq.empty() && !q.pool[dq.front().slot].live) {
                    releaseRef(q, dq.front().slot);
                    dq.pop_front();
                }
                if (dq.empty()) {
                    q.bankWords[w] &= ~(1ull << (b % 64));
                    continue;
                }
                const BankState &bs = ch.banks[b];
                wake = std::min(wake, bs.nextActAt);
                const bool act_ready = cycle >= bs.nextActAt;
                if (act_ready) {
                    const Group &hg = q.pool[dq.front().slot];
                    if (hg.seq < candSeq) {
                        candSeq = hg.seq;
                        candSlot = dq.front().slot;
                    }
                }
                if (!bs.openRow.has_value())
                    continue;
                const bool cas_ready = cycle >= bs.nextCasAt;
                if (!cas_ready && act_ready)
                    continue;
                for (const BankRef &ref : dq) {
                    const Group &g = q.pool[ref.slot];
                    if (!g.live)
                        continue;
                    const bool canHit = cas_ready && g.seq < hitSeq;
                    const bool canCand = !act_ready && g.seq < candSeq;
                    if (!canHit && !canCand)
                        break;
                    if (g.slices[ref.slice].row == *bs.openRow) {
                        if (canHit) {
                            hitSeq = g.seq;
                            hitSlot = ref.slot;
                        }
                        if (canCand) {
                            candSeq = g.seq;
                            candSlot = ref.slot;
                        }
                        break;
                    }
                }
            }
        }
        if (hitSlot != kInvalidSlot)
            return {hitSlot, primarySlice(ch, q.pool[hitSlot], true, cycle)};
        if (candSlot != kInvalidSlot)
            return {candSlot,
                    primarySlice(ch, q.pool[candSlot], false, cycle)};
        q.wakeAt = wake;
        return {};
    }

    u32 primarySlice(const Channel &ch, const Group &g, bool hit,
                     u64 cycle) const
    {
        for (u32 i = 0; i < g.slices.size(); ++i) {
            const BankState &bs = ch.banks[g.slices[i].bank.idx()];
            const bool row_open = bs.openRow == g.slices[i].row;
            if (hit ? (row_open && cycle >= bs.nextCasAt)
                    : (row_open || cycle >= bs.nextActAt))
                return i;
        }
        ADD_FAILURE() << "picked group has no qualifying slice";
        return 0;
    }

    u64 schedule(Channel &ch, const Slice &slice, bool write, u32 bytes,
                 u64 cycle, bool lockstep_sibling = false)
    {
        using namespace timing;
        BankState &b = ch.banks[slice.bank.idx()];
        u64 done;
        const u32 ccd =
            std::max<u32>(1, tCCD * bytes / cfg_.geom.lineBytes);
        auto wtr_floor = [&](u64 cas) {
            if (!write && b.lastWriteCas + static_cast<i64>(tWTR) >
                              static_cast<i64>(cas))
                return static_cast<u64>(b.lastWriteCas + tWTR);
            return cas;
        };
        if (b.openRow == slice.row) {
            const u64 t0 = wtr_floor(std::max(cycle, b.nextCasAt));
            done = t0 + tCAS + tBURST;
            b.nextCasAt = t0 + ccd;
            if (write)
                b.lastWriteCas = static_cast<i64>(t0);
            ++counters_.rowHits;
        } else {
            u64 act = std::max(cycle, b.nextActAt);
            if (b.openRow.has_value())
                act = std::max(act, cycle + tRP);
            if (!lockstep_sibling) {
                if (ch.lastActAt + static_cast<i64>(tRRD) >
                    static_cast<i64>(act))
                    act = static_cast<u64>(ch.lastActAt + tRRD);
                ch.lastActAt = static_cast<i64>(act);
            }
            const u64 cas = wtr_floor(act + tRCD);
            done = cas + tCAS + tBURST;
            b.nextCasAt = cas + ccd;
            if (write)
                b.lastWriteCas = static_cast<i64>(cas);
            b.nextActAt = act + tRAS + tRP;
            b.openRow = slice.row;
            ++counters_.activates;
            ++counters_.rowMisses;
        }
        const double slot = static_cast<double>(tBURST) *
                            static_cast<double>(bytes) /
                            static_cast<double>(cfg_.geom.lineBytes);
        const double start =
            std::max(ch.busUntil, static_cast<double>(done) - slot);
        const double end = start + slot;
        ch.busUntil = end;
        if (static_cast<double>(done) < end)
            done = static_cast<u64>(std::ceil(end));
        if (write) {
            ++counters_.writeBursts;
            counters_.bytesWritten += bytes;
        } else {
            ++counters_.readBursts;
            counters_.bytesRead += bytes;
        }
        return done;
    }

    void issueGroup(Channel &ch, GroupQueue &q, const Pick &pick, u64 cycle)
    {
        Group &g = q.pool[pick.slot];
        const u64 readSeq =
            g.write ? 0 : allocSeq_[static_cast<u32>(g.token)];
        const u64 done0 =
            schedule(ch, g.slices[pick.slice], g.write, g.bytes, cycle);
        if (!g.write)
            completions_.push({done0, readSeq, g.token});
        for (u32 i = 0; i < g.slices.size(); ++i) {
            if (i == pick.slice)
                continue;
            const u64 done =
                schedule(ch, g.slices[i], g.write, g.bytes, cycle, true);
            if (!g.write)
                completions_.push({done, readSeq, g.token});
        }
        pendingOps_ -= g.slices.size();
        q.liveSlices -= g.slices.size();
        g.live = false;
        ch.reads.wakeAt = 0;
        ch.writes.wakeAt = 0;
    }

    void serviceChannel(Channel &ch, u64 cycle)
    {
        const bool write_pressure =
            ch.writes.liveSlices >= writeCapSubs_ / 2;
        GroupQueue *first = write_pressure ? &ch.writes : &ch.reads;
        GroupQueue *second = write_pressure ? &ch.reads : &ch.writes;
        Pick pick = pickCandidate(ch, *first, cycle);
        GroupQueue *q = first;
        if (!pick.valid()) {
            pick = pickCandidate(ch, *second, cycle);
            q = second;
        }
        if (pick.valid())
            issueGroup(ch, *q, pick, cycle);
    }
};

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
    const u64 token = mem.issueRead(LineAddr{0});
    const u64 done = runUntilDone(mem, token);
    // tRCD + tCAS + tBURST = 9 + 9 + 1 = 19 for a cold bank.
    EXPECT_EQ(done, 19u);
    EXPECT_EQ(mem.counters().activates, 1u);
    EXPECT_EQ(mem.counters().rowMisses, 1u);
}

TEST_F(MemTest, RowHitIsFasterThanRowMiss)
{
    MemorySystem mem(cfg_);
    const u64 t1 = mem.issueRead(LineAddr{0});
    const u64 d1 = runUntilDone(mem, t1);
    // Line 1 is the next slot of the same open row.
    const u64 t2 = mem.issueRead(LineAddr{1});
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
    const u64 t1 = mem.issueRead(map.coordToLine(a));
    const u64 d1 = runUntilDone(mem, t1);
    const u64 t2 = mem.issueRead(map.coordToLine(b));
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
        const u64 token = mem.issueRead(LineAddr{0});
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
    const u64 token = mem.issueRead(LineAddr{0});
    runUntilDone(mem, token);
    EXPECT_EQ(mem.counters().activates, cfg_.geom.banksPerChannel);
}

TEST_F(MemTest, AcrossChannelsUsesOneBankPerChannel)
{
    cfg_.striping = StripingMode::AcrossChannels;
    MemorySystem mem(cfg_);
    const u64 token = mem.issueRead(LineAddr{0});
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
    const u64 token = mem.issueRead(LineAddr{0});
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
    const u64 t1 = mem.issueRead(map.coordToLine(a));
    const u64 t2 = mem.issueRead(map.coordToLine(b));
    (void)t1;
    const u64 done = runUntilDone(mem, t2);
    EXPECT_GE(done, timing::tRAS); // waited for the row cycle
}

TEST_F(MemTest, WritesAreAcceptedUpToCap)
{
    MemorySystem mem(cfg_);
    u32 accepted = 0;
    while (mem.canAcceptWrite(LineAddr{0}) && accepted < 1000) {
        mem.issueWrite(LineAddr{0});
        ++accepted;
    }
    EXPECT_EQ(accepted, kWriteQueueCap);
}

TEST_F(MemTest, WritesDrainEventually)
{
    MemorySystem mem(cfg_);
    for (int i = 0; i < 8; ++i)
        mem.issueWrite(LineAddr{static_cast<u64>(i)});
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
        mem.issueWrite(LineAddr{0});
    const u64 token = mem.issueRead(LineAddr{0});
    const u64 done = runUntilDone(mem, token);
    EXPECT_LE(done, 25u);
}

TEST_F(MemTest, IndependentChannelsProceedInParallel)
{
    MemorySystem mem(cfg_);
    // Lines 4 apart hit 8 different channels.
    std::vector<u64> tokens;
    for (u64 i = 0; i < 8; ++i)
        tokens.push_back(mem.issueRead(LineAddr{i * 4}));
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

    mem.issueRead(map.coordToLine(open));
    mem.tick(0);
    mem.issueRead(map.coordToLine(miss));
    mem.tick(1);
    mem.tick(2);
    ASSERT_EQ(mem.counters().readBursts, 1u);

    mem.issueRead(map.coordToLine(hit));
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

    mem.issueRead(map.coordToLine(q));
    mem.tick(0);
    mem.issueRead(map.coordToLine(r));
    mem.tick(1);
    for (u32 i = 0; i < kWriteQueueCap / 2; ++i)
        mem.issueWrite(map.coordToLine(r));

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
    mem.issueRead(LineAddr{0});
    EXPECT_EQ(mem.pending(), 1u);
    cfg_.striping = StripingMode::AcrossBanks;
    MemorySystem striped(cfg_);
    striped.issueRead(LineAddr{0});
    EXPECT_EQ(striped.pending(), 8u);
}

/** Drive MemorySystem and the rescanning model with the same
 *  counter-seeded traffic and require the same behavior on every
 *  cycle. Traffic cycles through read-heavy, quiet, write-heavy and
 *  quiet phases of 256 cycles over four rows per bank, so row hits,
 *  conflicts, write pressure and idle queues all occur; in quiet
 *  phases the clock sometimes jumps to the next event, as the
 *  event-stepped SystemSim loop does. */
void
expectSameSchedule(const SimConfig &cfg, bool steer, u64 seed)
{
    MemorySystem mem(cfg);
    RescanningMemory ref(cfg);
    const StackGeometry &g = cfg.geom;
    const AddressMap map(g);
    RetirementMap retired(g);
    if (steer) {
        mem.attachRetirement(&retired);
        ref.attachRetirement(&retired);
    }

    // Half the traffic goes to one hot channel (under Across-Channels,
    // to every channel of one stack).
    Rng rng(mix64(seed));
    const auto randomLine = [&] {
        const u64 x = rng.next();
        const bool hot = (x & 1) != 0;
        LineCoord c;
        c.stack = StackId{hot ? 0 : static_cast<u32>((x >> 8) % g.stacks)};
        c.channel = ChannelId{
            hot ? 0 : static_cast<u32>((x >> 16) % g.channelsPerStack)};
        c.bank = BankId{static_cast<u32>((x >> 24) % g.banksPerChannel)};
        c.row = RowId{static_cast<u32>((x >> 32) % 4)};
        c.col = ColId{static_cast<u32>((x >> 40) % g.linesPerRow())};
        return map.coordToLine(c);
    };

    constexpr u64 kTrafficCycles = 6000;
    u64 reads = 0;
    u64 cycle = 0;
    for (; cycle < kTrafficCycles; ++cycle) {
        SCOPED_TRACE(::testing::Message() << "cycle " << cycle);
        // Steering grows in steps, as ladder actions would (the clock
        // may jump past a step's first cycle; repeats are no-ops).
        if (steer && cycle >= 1500)
            retired.offlineRow(StackId{0}, ChannelId{0}, BankId{0},
                               RowId{1});
        if (steer && cycle >= 3000)
            retired.retireBank(StackId{0}, ChannelId{0}, BankId{1});
        if (steer && cycle >= 4500)
            retired.degradeChannel(StackId{0},
                                   ChannelId{g.channelsPerStack - 1});

        const u64 phase = (cycle / 256) % 4;
        const bool busy = phase % 2 == 0;
        const u64 writeEighths = phase == 2 ? 7 : 3;
        const u64 x = rng.next();
        // Write-heavy phases arrive faster than one channel drains, so
        // write queues pass their high-water mark on every mapping.
        const u32 ops = !busy       ? static_cast<u32>(x % 16 == 0)
                        : phase == 2 ? static_cast<u32>(x % 8)
                                     : static_cast<u32>(x % 4);
        for (u32 i = 0; i < ops; ++i) {
            const u64 y = rng.next();
            const LineAddr line = randomLine();
            if (y % 8 < writeEighths) {
                const bool room = mem.canAcceptWrite(line);
                ASSERT_EQ(room, ref.canAcceptWrite(line));
                if (room) {
                    mem.issueWrite(line);
                    ref.issueWrite(line);
                }
            } else {
                const bool ras = y % 8 == writeEighths;
                ASSERT_EQ(mem.issueRead(line, ras),
                          ref.issueRead(line, ras));
                ++reads;
            }
        }

        ASSERT_EQ(mem.nextEventCycle(cycle), ref.nextEventCycle(cycle));
        mem.tick(cycle);
        ref.tick(cycle);
        ASSERT_EQ(mem.drainCompletedReads(), ref.drainCompletedReads());
        ASSERT_EQ(mem.pending(), ref.pending());
        const u64 next = mem.nextEventCycle(cycle + 1);
        ASSERT_EQ(next, ref.nextEventCycle(cycle + 1));
        if (!busy && x % 3 == 0 && next != MemorySystem::kNoEvent)
            cycle = std::min(next, (cycle / 256 + 1) * 256) - 1;
    }

    // Quiesce: every queued request issues and every read completes.
    while (mem.nextEventCycle(cycle) != MemorySystem::kNoEvent) {
        SCOPED_TRACE(::testing::Message() << "drain cycle " << cycle);
        ASSERT_LT(cycle, kTrafficCycles + 100000) << "did not quiesce";
        const u64 next = mem.nextEventCycle(cycle);
        ASSERT_EQ(next, ref.nextEventCycle(cycle));
        cycle = next;
        mem.tick(cycle);
        ref.tick(cycle);
        ASSERT_EQ(mem.drainCompletedReads(), ref.drainCompletedReads());
        ASSERT_EQ(mem.pending(), ref.pending());
        ++cycle;
    }
    EXPECT_EQ(ref.nextEventCycle(cycle), MemorySystem::kNoEvent);
    EXPECT_EQ(mem.pending(), 0u);

    const MemCounters &a = mem.counters();
    const MemCounters &b = ref.counters();
    EXPECT_EQ(a.activates, b.activates);
    EXPECT_EQ(a.readBursts, b.readBursts);
    EXPECT_EQ(a.writeBursts, b.writeBursts);
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
    EXPECT_EQ(a.rasReads, b.rasReads);
    EXPECT_EQ(a.steeredReads, b.steeredReads);
    EXPECT_EQ(a.steeredWrites, b.steeredWrites);
    // The traffic did exercise the scheduler.
    EXPECT_EQ(a.bytesRead, reads * g.lineBytes); // every read served
    EXPECT_GT(a.rowHits, 0u);
    EXPECT_GT(a.rowMisses, 0u);
    EXPECT_GT(a.writeBursts, 0u);
    if (steer) {
        EXPECT_GT(a.steeredReads, 0u);
        EXPECT_GT(a.steeredWrites, 0u);
    }
}

TEST(MemorySystem, MatchesTheRescanningScheduler)
{
    const struct
    {
        const char *name;
        StackGeometry geom;
    } geoms[] = {{"default", StackGeometry{}},
                 {"tiny", StackGeometry::tiny()},
                 {"hmcLike", StackGeometry::hmcLike()}};
    u64 seed = 0;
    for (const auto &geo : geoms) {
        for (const StripingMode mode :
             {StripingMode::SameBank, StripingMode::AcrossBanks,
              StripingMode::AcrossChannels}) {
            for (const bool steer : {false, true}) {
                SimConfig cfg;
                cfg.geom = geo.geom;
                cfg.striping = mode;
                SCOPED_TRACE(::testing::Message()
                             << geo.name << " " << stripingModeName(mode)
                             << (steer ? " steered" : ""));
                expectSameSchedule(cfg, steer, ++seed);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

} // namespace
} // namespace citadel
