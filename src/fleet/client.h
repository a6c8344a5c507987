/**
 * @file
 * Fleet client library: the retry/hedging engine that turns lossy,
 * crash-prone stack servers into a usable memory-pool service.
 *
 * Reads go to the key's primary and are hedged to the next replica
 * when the primary dawdles; writes fan out to every replica and
 * acknowledge at a quorum, which is what makes "no acknowledged write
 * is lost when any single server dies" a theorem rather than a hope.
 * Attempts that time out (per-attempt) back off exponentially with
 * deterministic jitter (fleet/retry.h) and re-resolve placement, so a
 * failed-over key finds its new owners; the operation as a whole is
 * bounded by a deadline.
 *
 * The client is single-threaded by design — it runs in the campaign's
 * serial phase — and never reads a real clock: every method takes the
 * virtual `now`. Its state is flat and sized up front (ClientTuning):
 * a power-of-two op-slot table indexed by operation id, a timing wheel
 * of per-tick wakeup buckets (timeouts, backoff expiries, hedges,
 * deadlines) drained in (tick, insertion) order, and dense per-key
 * version and acked arrays iterated in ascending key order. Processing
 * order is therefore deterministic, and the serving hot path does no
 * ordered-container work and no steady-state allocation.
 *
 * An op slot is 72 bytes: seven u64s, three u32s and three flag bytes
 * (kind, hedged, live), widest first so nothing pads between them. It
 * stores only what it cannot derive. A write's payload is
 * valueFor(key, version, salt), the deadline is issuedAt + opDeadline,
 * and the write-ack count is popcount(ackMask); each is computed where
 * it is read. The checkpoint still writes each live op as the full
 * record (OpRecord) with those three fields in it, and a load rejects
 * a record whose saved ones disagree with the derived ones.
 */

#ifndef CITADEL_FLEET_CLIENT_H
#define CITADEL_FLEET_CLIENT_H

#include <functional>
#include <vector>

#include "fleet/retry.h"

namespace citadel {
namespace fleet {

/**
 * Client state sizing; both fields must be positive.
 *  - opWindow: max span of live operation ids at any instant (ids are
 *    dense, so arrivals/tick x op lifetime bounds it; exceeding the
 *    window is fatal, never silent).
 *  - keySpace: keys are in [0, keySpace) (dense version/acked arrays;
 *    a write outside it is fatal).
 */
struct ClientTuning
{
    u64 opWindow = 0;
    u64 keySpace = 0;
};

class FleetClient
{
  public:
    /** Deliver one request to a server (the campaign's "network"). */
    using SendFn = std::function<void(const Request &, ServerIdx)>;

    /** Resolve the current replica set of a key, primary first. */
    using PlacementFn =
        std::function<void(u64 key, std::vector<ServerIdx> &)>;

    /** The last acknowledged state of one key (the audit set). */
    struct AckedWrite
    {
        u64 version = 0;
        u64 value = 0;

        friend void fields(auto &io, Of<AckedWrite> auto &aw)
        {
            io(aw.version, aw.value);
        }
    };

    FleetClient(const RetryPolicy &policy, u32 replication,
                u32 ackQuorum, u64 valueSalt, const ClientTuning &tuning);

    /** Wire the client to the fleet. Must be called before use. */
    void connect(PlacementFn placement, SendFn send);

    // The client is serial-phase-only (see file comment): its wakeup
    // queue and op table are shared with the placement/send callbacks
    // that reach into coordinator and servers.

    /** Issue a read of `key` as operation `op` at virtual time `now`. */
    void startRead(u64 op, u64 key, u64 now)
        CITADEL_REQUIRES(kSerialPhase);

    /** Issue a write; the client assigns the next version of `key` and
     *  derives the payload digest from (key, version). */
    void startWrite(u64 op, u64 key, u64 now)
        CITADEL_REQUIRES(kSerialPhase);

    /** A response arrived (duplicates and stragglers welcome). */
    void onResponse(const Response &resp, u64 now)
        CITADEL_REQUIRES(kSerialPhase);

    /** Run every wakeup due at or before `now`. */
    void tick(u64 now) CITADEL_REQUIRES(kSerialPhase);

    /** End of campaign: classify still-inflight ops as unresolved. */
    void finish() CITADEL_REQUIRES(kSerialPhase);

    /** Operations still in flight. */
    std::size_t inflight() const { return live_; }

    const FleetCounters &counters() const { return counters_; }

    /** Number of keys with an acknowledged write. */
    u64 ackedCount() const { return ackedCount_; }

    /** Visit every key's last acknowledged write as (key, AckedWrite)
     *  in ascending key order (what the durability audit walks). */
    template <typename Fn>
    void forEachAcked(Fn &&fn) const CITADEL_REQUIRES(kSerialPhase)
    {
        for (u64 key = 0; key < acked_.size(); ++key)
            if (acked_[key].version != 0)
                fn(key, acked_[key]);
    }

    /**
     * Completion-latency histogram in virtual ticks: bucket d counts
     * acked operations that completed d ticks after issue (the last
     * bucket accumulates everything >= its index). Part of the
     * fingerprint, so a wire change that shifted a single
     * completion tick would be caught.
     */
    const std::vector<u64> &latencyHist() const { return hist_; }

    /** The payload digest the client writes for (key, version); the
     *  audit recomputes it to verify replica integrity. */
    static u64 valueFor(u64 key, u64 version, u64 salt);

    /** Fold the acked-write set + latency histogram into a
     *  fingerprint. */
    void serialize(ByteSink &sink) const CITADEL_REQUIRES(kSerialPhase);

    /**
     * Full client checkpoint: in-flight ops, pending wakeups (wheel
     * buckets, equal-tick FIFO order preserved), per-key versions,
     * the acked set, the latency histogram, and counters.
     * loadState() requires a client constructed with the identical
     * (policy, replication, quorum, salt, tuning).
     */
    void saveState(ByteSink &sink) const CITADEL_REQUIRES(kSerialPhase);
    void loadState(ByteSource &src) CITADEL_REQUIRES(kSerialPhase);

  private:
    /** One op slot: a live operation's state, widest fields first
     *  (see the file comment for the fields it derives). */
    struct Op
    {
        u64 id = 0; ///< The full op id (the table holds id & mask).
        u64 key = 0;
        u64 version = 0; ///< Writes only.
        u64 issuedAt = 0;
        u64 lastSentAt = 0; ///< When the current round was sent.
        u64 retryAt = 0;    ///< Backoff expiry; 0 = not backing off.
        u64 ackMask = 0; ///< Writes: bit per acked server (<= 64).
        u32 attempts = 0;   ///< Attempt rounds launched.
        ServerIdx mainServer = kNoServer;  ///< Current read target.
        ServerIdx hedgeServer = kNoServer; ///< Current hedge target.
        OpKind kind = OpKind::Read;
        bool hedged = false;
        bool live = false; ///< Slot holds op `id` in flight.
    };
    static_assert(sizeof(Op) == 72, "an op slot has no padding to spare");

    /**
     * The checkpoint record of one op: every slot field but the id
     * and live flag, plus the derived value, deadline and acks, in
     * this fixed wire order. Loading rejects a record whose derived
     * fields disagree with the ones its slot would derive.
     */
    struct OpRecord
    {
        OpKind kind = OpKind::Read;
        u64 key = 0;
        u64 version = 0;
        u64 value = 0;
        u64 issuedAt = 0;
        u64 deadline = 0;
        u32 attempts = 0;
        u64 lastSentAt = 0;
        u64 retryAt = 0;
        bool hedged = false;
        ServerIdx mainServer = kNoServer;
        ServerIdx hedgeServer = kNoServer;
        u64 ackMask = 0;
        u32 acks = 0;

        friend void fields(auto &io, Of<OpRecord> auto &op)
        {
            io.enumByte(op.kind, OpKind::Write,
                        "FleetClient: corrupt checkpoint: unknown op "
                        "kind %u");
            io(op.key, op.version, op.value, op.issuedAt, op.deadline,
               op.attempts, op.lastSentAt, op.retryAt, op.hedged,
               op.mainServer, op.hedgeServer, op.ackMask, op.acks);
        }
    };

    /** Saved form of the op-slot table: the live count, then (id,
     *  OpRecord) per live slot in slot order. Loading re-inserts each
     *  op through insertOp(), which checks the id against the window,
     *  and rejects a record whose slot is not above the one before. */
    template <class Client> struct SavedOps
    {
        explicit SavedOps(Client &c) : client(c) {}
        Client &client;
        void saveState(ByteSink &sink) const;
        void loadState(ByteSource &src);
    };

    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self);

    Op &insertOp(const Op &op);
    Op *findOp(u64 op_id);
    u64 &nextVersionOf(u64 key);
    void recordAck(u64 key, u64 version, u64 value);

    /** The fields a slot derives (file comment), and its record. */
    u64 valueOf(const Op &op) const;
    u64 deadlineOf(const Op &op) const;
    static u32 acksOf(const Op &op);
    OpRecord recordOf(const Op &op) const;

    void sendRead(Op &op, u64 now);
    void sendWrite(Op &op, u64 now);
    void sendHedge(Op &op);
    void beginBackoff(Op &op, u64 now);
    void evaluate(u64 op_id, u64 now);
    void complete(Op &op, bool acked, u64 now);
    void wakeAt(u64 tick, u64 op_id);

    RetryPolicy policy_;
    u32 replication_;
    u32 ackQuorum_;
    u64 valueSalt_;

    PlacementFn placementFn_;
    SendFn sendFn_;

    std::vector<Op> slots_; ///< Power-of-two, indexed by id & mask.
    u64 slotMask_ = 0;
    std::size_t live_ = 0;
    std::vector<std::vector<u64>> wheel_; ///< Per-tick wakeup buckets.
    u64 wheelMask_ = 0;
    u64 lastProcessed_ = ~0ull; ///< Last tick fully drained.
    std::vector<u64> versions_; ///< Per-key next-version counter.
    std::vector<AckedWrite> acked_;

    u64 ackedCount_ = 0;
    std::vector<u64> hist_; ///< Acked completion latency (ticks).
    std::vector<ServerIdx> scratch_; ///< Placement resolution buffer.

    FleetCounters counters_;
};

} // namespace fleet
} // namespace citadel

#endif // CITADEL_FLEET_CLIENT_H
