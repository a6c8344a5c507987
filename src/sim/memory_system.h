/**
 * @file
 * Cycle-approximate stacked-DRAM memory system: per-channel FR-FCFS
 * scheduling, open-page bank state machines with Table II timing, a
 * shared data TSV bus per channel, and striping-aware fan-out (one
 * logical line access becomes 1 / 8 sub-requests depending on the
 * mapping, Section II-D/E).
 *
 * Scheduler internals are organized for speed without changing any
 * decision the flat-queue implementation made (DESIGN.md section 10):
 *
 *  - one queued entry per (line, channel) *group* carrying its striped
 *    slices inline, so lockstep-sibling issue never rescans a queue;
 *  - per-bank sub-queues (head-indexed vectors of slice references
 *    into a group pool) plus a ready-bank bitmask;
 *  - cached per-bank picks: each bank sub-queue keeps its oldest live
 *    reference and its oldest live reference to the bank's open row.
 *    An enqueue updates the one bank it touches; an issue refreshes
 *    only the issued slices' banks, in both of the channel's queues
 *    (schedule() moved their open row). The FR-FCFS pick is then a
 *    loop over the banks with work, reading two cached entries each,
 *    with no walk of the queued references;
 *  - a per-queue wake bound: a pick that finds nothing records the
 *    earliest cycle a candidate can appear, and later picks return at
 *    once until that cycle or until an enqueue or an issue in the
 *    channel resets it;
 *  - a flat per-channel due array, the minimum wake bound of the
 *    channel's non-empty queues: tick() services only channels due at
 *    its cycle (a channel not yet due would find nothing, so skipping
 *    it is exact), and nextEventCycle(), the contract the event-driven
 *    SystemSim loop uses to skip cycles in which tick() would provably
 *    do nothing, reads the same array;
 *  - a token arena with generation-tagged slots, so completion
 *    tracking is a flat vector lookup rather than an unordered_map.
 *
 * Determinism audit (DESIGN.md section 13): this file holds no
 * std::unordered_* container — the token arena above removed the last
 * one — so nothing here iterates in hash order. The unordered-container
 * rule in tools/lint_determinism.py now guards that property for every
 * file under src/ and bench/; reintroducing one fails the lint gate
 * unless a blessing spells out why its iteration order can never reach
 * an observable result.
 */

#ifndef CITADEL_SIM_MEMORY_SYSTEM_H
#define CITADEL_SIM_MEMORY_SYSTEM_H

#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "sim/dram_timing.h"

namespace citadel {

class RetirementMap;

/** Activity counters feeding the power model. */
struct MemCounters
{
    u64 activates = 0;
    u64 readBursts = 0;
    u64 writeBursts = 0;
    u64 rowHits = 0;
    u64 rowMisses = 0;
    u64 bytesRead = 0;
    u64 bytesWritten = 0;

    /** Sub-requests issued for RAS purposes (RBW, parity fetches,
     *  read-retry and reconstruction group reads) rather than demand
     *  traffic. Subset of readBursts. */
    u64 rasReads = 0;

    /** Line accesses steered around a retired region by the attached
     *  RetirementMap (degradation-ladder indirection cost). */
    u64 steeredReads = 0;
    u64 steeredWrites = 0;
};

/** The DRAM side of the simulator. */
class MemorySystem
{
  public:
    /** Sentinel for "no event pending" (nextEventCycle). */
    static constexpr u64 kNoEvent = std::numeric_limits<u64>::max();

    explicit MemorySystem(const SimConfig &cfg);

    /**
     * Enqueue a line read (fans out per the striping mode). The
     * scheduler orders requests by enqueue sequence, not by cycle.
     * @param ras Tag the read as RAS traffic (counted separately).
     * @return a token reported by drainCompletedReads when all
     *         sub-requests finish.
     */
    u64 issueRead(LineAddr line, bool ras = false);

    /** Is there write-queue space on every channel the line touches? */
    bool canAcceptWrite(LineAddr line) const;

    /** Enqueue a posted line write (no completion reporting). */
    void issueWrite(LineAddr line);

    /** Advance one memory-controller cycle. */
    void tick(u64 cycle);

    /** Tokens of reads fully serviced since the previous drain, in
     *  completion order. Slots of tokens handed out by the *previous*
     *  drain are recycled here, so callers may use a returned token,
     *  and the returned buffer, until their next call. */
    const std::vector<u64> &drainCompletedReads();

    /**
     * Earliest cycle >= `now` at which tick() could change any state:
     * a pending completion matures, or a queue's wake bound passes
     * (`now` for a queue whose bound was reset and not yet re-derived
     * by a pick). Strictly between `now` and the returned cycle,
     * tick() is a no-op; kNoEvent when fully idle.
     */
    u64 nextEventCycle(u64 now) const;

    /** Requests still queued (not yet issued to a bank). */
    u64 pending() const { return pendingOps_; }

    /** Arena slot of a read token: a dense index < tokenSlots() usable
     *  as a key into caller-side flat tables. Slots are recycled one
     *  drainCompletedReads call after their token is reported. */
    static u32 tokenSlot(u64 token) { return static_cast<u32>(token); }

    /** Upper bound (exclusive) on live token slots. */
    u32 tokenSlots() const
    {
        return static_cast<u32>(tokens_.gen.size());
    }

    const MemCounters &counters() const { return counters_; }
    const AddressMap &addressMap() const { return map_; }

    /**
     * Steer subsequent accesses around the regions `map` marks as
     * retired (nullptr detaches). The map is owned by the RAS layer
     * and consulted, not copied, so ladder actions take effect on the
     * very next enqueue.
     */
    void attachRetirement(const RetirementMap *map) { retire_ = map; }

  private:
    static constexpr u32 kInvalidSlot = 0xFFFFFFFFu;

    /** One per-bank DRAM access of a queued group. */
    struct Slice
    {
        BankId bank{};
        RowId row{};
    };

    /**
     * One queued logical line access within a channel: all the slices
     * the striping mode places in this channel. Slices issue in
     * lockstep when the group is picked (one multicast command), so
     * the group is the scheduling unit; slice order is enqueue order,
     * which the pick logic uses to reproduce flat-queue decisions.
     */
    struct Group
    {
        u64 token = 0;   ///< 0 for writes (no completion tracking).
        u64 seq = 0;     ///< Channel-local arrival order (FCFS age).
        u32 bytes = 0;   ///< Bytes per slice (lineBytes / fanout).
        bool write = false;
        bool live = false; ///< False once issued; refs drain lazily.
        u32 refs = 0;      ///< Bank-queue references still present.
        std::vector<Slice> slices;
    };

    /** Reference to one slice of a pooled group, queued at its bank.
     *  Carries the group's age and the slice's row, so a cache refresh
     *  reads the pool only for the group's liveness. */
    struct BankRef
    {
        u64 seq = 0;
        u32 slot = 0;
        RowId row{};
    };

    /** One bank's FIFO of slice references (seq ascending; refs of
     *  issued groups drain lazily, but the head is always live) and
     *  its cached FR-FCFS entries. */
    struct BankQueue
    {
        std::vector<BankRef> refs;
        u32 head = 0;
        u64 oldestSeq = kNoEvent; ///< Oldest live ref; kNoEvent if none.
        u32 oldestSlot = kInvalidSlot;
        u64 openSeq = kNoEvent; ///< Same, to the open row.
        u32 openSlot = kInvalidSlot;
    };

    /** Per-channel, per-direction scheduler queue: a slot pool of
     *  groups, per-bank FIFO sub-queues of slice references, and a
     *  bitmask index of banks that hold live work. */
    struct GroupQueue
    {
        std::vector<Group> pool;
        std::vector<u32> freeSlots;
        std::vector<BankQueue> perBank;
        std::vector<u64> bankWords; ///< Ready-bank index (1 bit/bank).
        u64 liveSlices = 0;         ///< Queued sub-request count.
        /** Wake bound: no FR-FCFS candidate exists before this cycle.
         *  Set by a pick that finds nothing; reset to 0 by an enqueue
         *  into this queue and by any issue in its channel, the only
         *  changes that could create a candidate sooner. */
        u64 wakeAt = 0;
    };

    struct BankState
    {
        std::optional<RowId> openRow;
        u64 nextActAt = 0;
        u64 nextCasAt = 0;
        i64 lastWriteCas = -1'000'000; ///< For write->read turnaround.
    };

    struct Channel
    {
        GroupQueue reads;
        GroupQueue writes;
        std::vector<BankState> banks;
        /** Data-TSV bus horizon in cycles. Fractional: a striped
         *  sub-request only occupies its share of the 256 lanes. */
        double busUntil = 0.0;
        i64 lastActAt = -1'000'000; ///< Sentinel: no activation yet.
        u64 nextSeq = 0;
    };

    /** Read-token arena: flat per-slot state, generation-tagged so a
     *  recycled slot can never satisfy a stale token. */
    struct TokenArena
    {
        std::vector<u32> gen;       ///< Current generation per slot.
        std::vector<u32> remaining; ///< Sub-requests left per slot.
        std::vector<u64> allocSeq;  ///< Read allocation order per slot.
        std::vector<u32> freeSlots;
    };

    /** FR-FCFS pick: a group slot plus the slice the flat scan would
     *  have selected as the primary sub-request. */
    struct Pick
    {
        u32 slot = kInvalidSlot;
        u32 slice = 0;

        bool valid() const { return slot != kInvalidSlot; }
    };

    /** Completion-queue entry; `seq` is the read token's allocation
     *  order, which reproduces the legacy token-value-ascending
     *  tie-break on equal done cycles. */
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
    /** Per channel: min wakeAt of its non-empty queues (kNoEvent when
     *  both are empty). tick() skips a channel until this cycle. */
    std::vector<u64> dueAt_;
    MemCounters counters_;
    u64 writeCapSubs_ = 0; ///< Write-queue cap in sub-requests.
    const RetirementMap *retire_ = nullptr;

    TokenArena tokens_;
    u64 readAllocSeq_ = 0; ///< Monotonic read order for tie-breaks.
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<>>
        completions_;
    std::vector<u64> completedTokens_;
    /** Tokens the last drain returned; freed on the next drain call. */
    std::vector<u64> drainedTokens_;
    u64 pendingOps_ = 0;

    u32 channelIndex(const LineCoord &c) const;

    /** Apply retirement steering to a decoded coordinate (identity
     *  when no map is attached or nothing is retired). */
    LineCoord routeCoord(const LineCoord &coord) const;

    u64 allocToken();
    void releaseToken(u64 token);

    u32 acquireGroup(GroupQueue &q);
    void releaseRef(GroupQueue &q, u32 slot);

    /** Re-derive bank `b`'s cached entries in `q` after an issue:
     *  drain dead head refs, then find the oldest live ref to the
     *  bank's (possibly new) open row. */
    void refreshBank(const Channel &ch, GroupQueue &q, std::size_t b);

    /** Min wakeAt of the channel's non-empty queues. */
    static u64 channelDue(const Channel &ch);

    void enqueue(const LineCoord &line, bool write, u64 token, bool ras);
    void serviceChannel(Channel &ch, u64 cycle);

    /** FR-FCFS candidate in `q` at `cycle`; invalid Pick if none
     *  (then `q.wakeAt` holds the earliest cycle one can appear). */
    Pick pickCandidate(Channel &ch, GroupQueue &q, u64 cycle);

    /** First slice of `g` satisfying the pick predicate (flat order). */
    u32 primarySlice(const Channel &ch, const Group &g, bool hit,
                     u64 cycle) const;

    /** Issue a picked group: primary slice first, then its lockstep
     *  siblings in slice order. */
    void issueGroup(Channel &ch, GroupQueue &q, const Pick &pick,
                    u64 cycle);

    /** Schedule one sub-request on its bank; returns data-done cycle.
     *  @param lockstep_sibling True for the 2nd..Nth sub-request of a
     *         striped line: activated together with the first (one
     *         multi-bank activate), so it skips the tRRD chain. */
    u64 schedule(Channel &ch, const Slice &slice, bool write, u32 bytes,
                 u64 cycle, bool lockstep_sibling = false);
};

} // namespace citadel

#endif // CITADEL_SIM_MEMORY_SYSTEM_H
