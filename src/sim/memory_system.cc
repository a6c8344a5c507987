#include "sim/memory_system.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.h"
#include "sim/retirement.h"

namespace citadel {

namespace {

/** Token layout: generation in the high 32 bits, arena slot in the
 *  low 32. Generations start at 1 so no read token is ever 0 (0 is
 *  the "untracked write" convention). */
inline u64
makeToken(u32 gen, u32 slot)
{
    return (static_cast<u64>(gen) << 32) | slot;
}

inline u32
tokenGen(u64 token)
{
    return static_cast<u32>(token >> 32);
}

} // namespace

MemorySystem::MemorySystem(const SimConfig &cfg) : cfg_(cfg), map_(cfg.geom)
{
    const u32 nch = cfg_.geom.totalChannels();
    channels_.resize(nch);
    dueAt_.assign(nch, kNoEvent);
    const std::size_t words = (cfg_.geom.banksPerChannel + 63) / 64;
    for (auto &ch : channels_) {
        ch.banks.resize(cfg_.geom.banksPerChannel);
        for (GroupQueue *q : {&ch.reads, &ch.writes}) {
            q->perBank.resize(cfg_.geom.banksPerChannel);
            q->bankWords.assign(words, 0);
        }
    }
    // The write queue holds whole-line writes; striped mappings enqueue
    // fanout sub-requests per line, so the sub-request cap scales.
    writeCapSubs_ = static_cast<u64>(kWriteQueueCap) *
                    map_.fanout(cfg_.striping);
}

u32
MemorySystem::channelIndex(const LineCoord &c) const
{
    return c.stack.value() * cfg_.geom.channelsPerStack +
           c.channel.value();
}

u64
MemorySystem::allocToken()
{
    u32 slot;
    if (!tokens_.freeSlots.empty()) {
        slot = tokens_.freeSlots.back();
        tokens_.freeSlots.pop_back();
    } else {
        slot = static_cast<u32>(tokens_.gen.size());
        tokens_.gen.push_back(1);
        tokens_.remaining.push_back(0);
        tokens_.allocSeq.push_back(0);
    }
    tokens_.allocSeq[slot] = readAllocSeq_++;
    return makeToken(tokens_.gen[slot], slot);
}

void
MemorySystem::releaseToken(u64 token)
{
    const u32 slot = tokenSlot(token);
    ++tokens_.gen[slot];
    tokens_.freeSlots.push_back(slot);
}

u32
MemorySystem::acquireGroup(GroupQueue &q)
{
    if (!q.freeSlots.empty()) {
        const u32 slot = q.freeSlots.back();
        q.freeSlots.pop_back();
        return slot;
    }
    q.pool.emplace_back();
    return static_cast<u32>(q.pool.size() - 1);
}

void
MemorySystem::releaseRef(GroupQueue &q, u32 slot)
{
    // The slices stay until enqueue reuses the slot: issueGroup walks
    // them while its refreshes release the group.
    Group &g = q.pool[slot];
    if (--g.refs == 0 && !g.live)
        q.freeSlots.push_back(slot);
}

void
MemorySystem::refreshBank(const Channel &ch, GroupQueue &q, std::size_t b)
{
    BankQueue &bq = q.perBank[b];
    while (bq.head < bq.refs.size() &&
           !q.pool[bq.refs[bq.head].slot].live) {
        releaseRef(q, bq.refs[bq.head].slot);
        ++bq.head;
    }
    bq.openSeq = kNoEvent;
    bq.openSlot = kInvalidSlot;
    if (bq.head == bq.refs.size()) {
        bq.refs.clear();
        bq.head = 0;
        bq.oldestSeq = kNoEvent;
        bq.oldestSlot = kInvalidSlot;
        q.bankWords[b / 64] &= ~(1ull << (b % 64));
        return;
    }
    // Drop the drained prefix once it outweighs the live tail.
    if (bq.head >= 32 && 2 * bq.head >= bq.refs.size()) {
        bq.refs.erase(bq.refs.begin(), bq.refs.begin() + bq.head);
        bq.head = 0;
    }
    bq.oldestSeq = bq.refs[bq.head].seq;
    bq.oldestSlot = bq.refs[bq.head].slot;

    const std::optional<RowId> &open = ch.banks[b].openRow;
    if (!open.has_value())
        return;
    for (std::size_t i = bq.head; i < bq.refs.size(); ++i) {
        const BankRef &ref = bq.refs[i];
        if (ref.row == *open && q.pool[ref.slot].live) {
            bq.openSeq = ref.seq;
            bq.openSlot = ref.slot;
            return;
        }
    }
}

u64
MemorySystem::channelDue(const Channel &ch)
{
    return std::min(ch.reads.liveSlices != 0 ? ch.reads.wakeAt : kNoEvent,
                    ch.writes.liveSlices != 0 ? ch.writes.wakeAt
                                              : kNoEvent);
}

void
MemorySystem::enqueue(const LineCoord &line, bool write, u64 token,
                      bool ras)
{
    const u32 fanout = map_.fanout(cfg_.striping);
    const u32 bytes = cfg_.geom.lineBytes / fanout;
    if (ras)
        counters_.rasReads += fanout;
    if (!write)
        tokens_.remaining[tokenSlot(token)] = fanout;

    // Bucket the sub-requests into one group per touched channel,
    // preserving sub-request order (the slices of a striped line in
    // one channel issue in lockstep and must keep their flat-queue
    // relative order for exact FR-FCFS tie-breaking).
    u32 openChannel = kInvalidSlot;
    u32 openSlot = kInvalidSlot;
    map_.forEachSubRequest(line, cfg_.striping, [&](const LineCoord &s) {
        const u32 chIdx = channelIndex(s);
        Channel &ch = channels_[chIdx];
        GroupQueue &q = write ? ch.writes : ch.reads;
        if (chIdx != openChannel) {
            openChannel = chIdx;
            openSlot = acquireGroup(q);
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
        g.slices.push_back({s.bank, s.row});
        ++g.refs;

        // The new ref is the bank's youngest: it becomes a cached
        // entry only where the bank had none.
        const std::size_t b = s.bank.idx();
        BankQueue &bq = q.perBank[b];
        if (bq.oldestSeq == kNoEvent) {
            bq.oldestSeq = g.seq;
            bq.oldestSlot = openSlot;
            q.bankWords[b / 64] |= 1ull << (b % 64);
        }
        if (bq.openSeq == kNoEvent && ch.banks[b].openRow == s.row) {
            bq.openSeq = g.seq;
            bq.openSlot = openSlot;
        }
        bq.refs.push_back({g.seq, openSlot, s.row});
        ++q.liveSlices;
        q.wakeAt = 0;
        dueAt_[chIdx] = 0;
        ++pendingOps_;
    });
}

u64
MemorySystem::issueRead(LineAddr line, bool ras)
{
    const u64 token = allocToken();
    const LineCoord coord = map_.lineToCoord(line);
    const LineCoord routed = routeCoord(coord);
    if (!(routed == coord))
        ++counters_.steeredReads;
    enqueue(routed, false, token, ras);
    return token;
}

bool
MemorySystem::canAcceptWrite(LineAddr line) const
{
    const LineCoord coord = routeCoord(map_.lineToCoord(line));
    bool room = true;
    map_.forEachSubRequest(coord, cfg_.striping, [&](const LineCoord &s) {
        room = room &&
               channels_[channelIndex(s)].writes.liveSlices < writeCapSubs_;
    });
    return room;
}

void
MemorySystem::issueWrite(LineAddr line)
{
    const LineCoord coord = map_.lineToCoord(line);
    const LineCoord routed = routeCoord(coord);
    if (!(routed == coord))
        ++counters_.steeredWrites;
    enqueue(routed, true, 0, false);
}

LineCoord
MemorySystem::routeCoord(const LineCoord &coord) const
{
    if (retire_ == nullptr || retire_->empty())
        return coord;
    return retire_->route(coord);
}

MemorySystem::Pick
MemorySystem::pickCandidate(Channel &ch, GroupQueue &q, u64 cycle)
{
    if (q.liveSlices == 0 || cycle < q.wakeAt)
        return {};

    // FR-FCFS: oldest ready row-hit first, else the oldest whose bank
    // can start an activation (or whose open row will accept a later
    // CAS). Oldest = smallest channel-local group seq, which equals
    // the flat-queue position of the legacy scan.
    u64 hitSeq = kNoEvent;
    u64 candSeq = kNoEvent;
    u32 hitSlot = kInvalidSlot;
    u32 candSlot = kInvalidSlot;
    u64 wake = kNoEvent;

    for (std::size_t w = 0; w < q.bankWords.size(); ++w) {
        for (u64 word = q.bankWords[w]; word != 0; word &= word - 1) {
            const std::size_t b =
                w * 64 + static_cast<std::size_t>(std::countr_zero(word));
            const BankQueue &bq = q.perBank[b];
            const BankState &bs = ch.banks[b];
            wake = std::min(wake, bs.nextActAt);
            const bool act_ready = cycle >= bs.nextActAt;
            // An activation-ready bank offers its oldest ref (every
            // queued row qualifies).
            if (act_ready && bq.oldestSeq < candSeq) {
                candSeq = bq.oldestSeq;
                candSlot = bq.oldestSlot;
            }
            if (bq.openSeq == kNoEvent)
                continue;
            // Its oldest ref to the open row: a ready row hit if the
            // bank can take a CAS, and (when the bank cannot activate)
            // still a candidate waiting on tCCD.
            if (cycle >= bs.nextCasAt && bq.openSeq < hitSeq) {
                hitSeq = bq.openSeq;
                hitSlot = bq.openSlot;
            }
            if (!act_ready && bq.openSeq < candSeq) {
                candSeq = bq.openSeq;
                candSlot = bq.openSlot;
            }
        }
    }

    if (hitSlot != kInvalidSlot)
        return {hitSlot,
                primarySlice(ch, q.pool[hitSlot], /*hit=*/true, cycle)};
    if (candSlot != kInvalidSlot)
        return {candSlot,
                primarySlice(ch, q.pool[candSlot], /*hit=*/false, cycle)};
    // No candidate: every bank with work is waiting on nextActAt and
    // holds no reference to its open row, so until the earliest
    // nextActAt only an enqueue or an issue can create one.
    q.wakeAt = wake;
    return {};
}

u32
MemorySystem::primarySlice(const Channel &ch, const Group &g, bool hit,
                           u64 cycle) const
{
    for (u32 i = 0; i < g.slices.size(); ++i) {
        const BankState &bs = ch.banks[g.slices[i].bank.idx()];
        const bool row_open = bs.openRow == g.slices[i].row;
        if (hit ? (row_open && cycle >= bs.nextCasAt)
                : (row_open || cycle >= bs.nextActAt))
            return i;
    }
    panic("memory: picked group has no qualifying slice");
}

u64
MemorySystem::schedule(Channel &ch, const Slice &slice, bool write,
                       u32 bytes, u64 cycle, bool lockstep_sibling)
{
    using namespace timing;
    BankState &b = ch.banks[slice.bank.idx()];
    u64 done;

    // Column-to-column spacing scales with the burst: a striped
    // sub-request moves lineBytes/fanout bytes in a proportionally
    // shorter burst, so its bank can accept the next CAS sooner.
    const u32 ccd =
        std::max<u32>(1, tCCD * bytes / cfg_.geom.lineBytes);

    // Write-to-read turnaround is paid once per switch (writes batch
    // at tCCD), matching a write-buffering controller.
    auto wtr_floor = [&](u64 cas) {
        if (!write && b.lastWriteCas + static_cast<i64>(tWTR) >
                          static_cast<i64>(cas))
            return static_cast<u64>(b.lastWriteCas + tWTR);
        return cas;
    };

    if (b.openRow == slice.row) {
        // Row hit: column access only.
        const u64 t0 = wtr_floor(std::max(cycle, b.nextCasAt));
        done = t0 + tCAS + tBURST;
        b.nextCasAt = t0 + ccd;
        if (write)
            b.lastWriteCas = static_cast<i64>(t0);
        ++counters_.rowHits;
    } else {
        // Row miss: (precharge if open) + activate + column access.
        u64 act = std::max(cycle, b.nextActAt);
        if (b.openRow.has_value())
            act = std::max(act, cycle + tRP);
        // Striped sibling banks activate together (one multi-bank
        // activate command): the tRRD spacing applies per line group,
        // not per slice -- striping's cost is activation energy.
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

    // Shared data-TSV bus. A full line occupies tBURST cycles; a
    // striped sub-request drives only its slice of the lanes, so it
    // reserves a proportional share (the slices of one logical line
    // transfer in parallel, as on a conventional DIMM).
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

void
MemorySystem::issueGroup(Channel &ch, GroupQueue &q, const Pick &pick,
                         u64 cycle)
{
    Group &g = q.pool[pick.slot];
    const u64 readSeq =
        g.write ? 0 : tokens_.allocSeq[tokenSlot(g.token)];

    // Primary slice first (it pays the tRRD chain), then its striped
    // siblings in slice order as one lockstep multi-bank command.
    const u64 done0 =
        schedule(ch, g.slices[pick.slice], g.write, g.bytes, cycle);
    if (!g.write)
        completions_.push({done0, readSeq, g.token});
    for (u32 i = 0; i < g.slices.size(); ++i) {
        if (i == pick.slice)
            continue;
        const u64 done = schedule(ch, g.slices[i], g.write, g.bytes,
                                  cycle, /*lockstep_sibling=*/true);
        if (!g.write)
            completions_.push({done, readSeq, g.token});
    }

    pendingOps_ -= g.slices.size();
    q.liveSlices -= g.slices.size();
    g.live = false; // bank-queue refs drain lazily
    // schedule() moved the open row of each issued slice's bank, and
    // this queue lost a live ref there: re-derive those banks' cached
    // entries in both queues. Bank state moved, so the wake bounds
    // derived from it are reset too.
    for (const Slice &slice : g.slices) {
        refreshBank(ch, ch.reads, slice.bank.idx());
        refreshBank(ch, ch.writes, slice.bank.idx());
    }
    ch.reads.wakeAt = 0;
    ch.writes.wakeAt = 0;
}

void
MemorySystem::serviceChannel(Channel &ch, u64 cycle)
{
    // Reads have priority; writes drain when no read is ready or the
    // write queue is past its high-water mark.
    const bool write_pressure =
        ch.writes.liveSlices >= writeCapSubs_ / 2;

    Pick pick;
    GroupQueue *q = nullptr;
    if (!write_pressure) {
        pick = pickCandidate(ch, ch.reads, cycle);
        q = &ch.reads;
        if (!pick.valid()) {
            pick = pickCandidate(ch, ch.writes, cycle);
            q = &ch.writes;
        }
    } else {
        pick = pickCandidate(ch, ch.writes, cycle);
        q = &ch.writes;
        if (!pick.valid()) {
            pick = pickCandidate(ch, ch.reads, cycle);
            q = &ch.reads;
        }
    }
    if (!pick.valid())
        return;

    issueGroup(ch, *q, pick, cycle);
}

void
MemorySystem::tick(u64 cycle)
{
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        if (dueAt_[c] > cycle)
            continue; // every pick would return at once
        serviceChannel(channels_[c], cycle);
        dueAt_[c] = channelDue(channels_[c]);
    }

    while (!completions_.empty() && completions_.top().done <= cycle) {
        const u64 token = completions_.top().token;
        completions_.pop();
        const u32 slot = tokenSlot(token);
        if (slot >= tokens_.gen.size() ||
            tokens_.gen[slot] != tokenGen(token) ||
            tokens_.remaining[slot] == 0)
            panic("memory: completion for unknown token");
        if (--tokens_.remaining[slot] == 0)
            completedTokens_.push_back(token);
    }
}

const std::vector<u64> &
MemorySystem::drainCompletedReads()
{
    // Tokens reported by the previous drain are done with their
    // grace period; recycle their slots now.
    for (const u64 token : drainedTokens_)
        releaseToken(token);
    drainedTokens_.swap(completedTokens_);
    completedTokens_.clear();
    return drainedTokens_;
}

u64
MemorySystem::nextEventCycle(u64 now) const
{
    u64 next = kNoEvent;
    if (!completions_.empty())
        next = std::max(now, completions_.top().done);
    for (const u64 due : dueAt_) {
        if (due <= now)
            return now;
        next = std::min(next, due);
    }
    return next;
}

} // namespace citadel
