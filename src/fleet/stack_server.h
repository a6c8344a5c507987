/**
 * @file
 * One stack server of the fleet: a bounded request queue in front of a
 * full bit-true device shard (LiveRasDatapath over a SimConfig
 * geometry), plus the replicated key-value metadata the memory-pool
 * service is made of. The KV store is a dense per-key array over the
 * campaign's key space: O(1), allocation-free lookups on the serving
 * hot path, and a key outside the space is fatal, never dropped.
 *
 * The server's step() is the unit of parallelism in the campaign loop:
 * it reads its own inbox, drives its own datapath, and appends to its
 * own outbox — nothing else. Within a step it consumes a bounded
 * budget of *service units*; a request costs one unit plus one per
 * parity-group read its device correction needed, so a stack that is
 * busy peeling errors visibly serves fewer requests per tick. The
 * budget is calibrated at startup by running a short SystemSim slice
 * (the same timing simulator the single-device experiments use) with
 * this server's datapath attached: the measured cycles-per-demand-read
 * converts the tick's cycle budget into a service rate.
 *
 * Device aging happens during the campaign: a FaultInjector lifetime
 * (data-plane and control-plane faults, counter-derived from the
 * server's seed) is compressed onto the campaign's tick horizon, so
 * the degradation ladder can bite mid-run and the coordinator sees
 * capacityFraction fall through healthSignals().
 */

#ifndef CITADEL_FLEET_STACK_SERVER_H
#define CITADEL_FLEET_STACK_SERVER_H

#include <memory>
#include <span>
#include <vector>

#include "fleet/fleet_types.h"
#include "ras/live_datapath.h"

namespace citadel {
namespace fleet {

/** Per-server configuration (one template shared by the fleet). */
struct ServerConfig
{
    /** Device shard geometry/timing (reduced geometries only: each
     *  server owns a bit-true model). */
    SimConfig sim;

    /** Datapath options (differential validation is always on: the
     *  no-overclaim invariant is part of the chaos acceptance). */
    LiveRasOptions ras;

    /** Fault-sampling config for in-campaign aging; geom/lifetime are
     *  overwritten per server. */
    SystemConfig faults;

    /** Simulated hours the campaign compresses onto its ticks (drives
     *  how many lifetime faults arrive mid-run). */
    double agingHours = 1000.0;

    /** Bounded inbox capacity; arrivals beyond it bounce as Busy. */
    u32 queueCap = 256;

    /** Instruction budget of the startup SystemSim calibration slice
     *  (the mcf profile); 0 skips calibration and uses
     *  `defaultServiceUnits`. */
    u64 calibrationInsns = 0;

    /** Service units per tick when calibration is off. test-only: the
     *  pinned smallConfig()/elasticConfig() fixtures serve 24. */
    u32 defaultServiceUnits = 16;

    void validate() const;
};

/** Server-local stats (merged into FleetCounters in server order). */
struct ServerStats
{
    u64 served = 0;
    u64 unitsSpent = 0;
    u64 rejected = 0;   ///< Bounced off the full inbox.
    u64 dueReads = 0;   ///< Requests answered DueData.
    u64 corrected = 0;  ///< Requests whose device read was corrected.
};

/** Checkpoint field list (common/serialize.h). */
void
fields(auto &io, Of<ServerStats> auto &s)
{
    io(s.served, s.unitsSpent, s.rejected, s.dueReads, s.corrected);
}

class StackServer
{
  public:
    /** Keys are in [0, key_space): the campaign's keySpace. */
    StackServer(ServerIdx index, const ServerConfig &cfg, u64 key_space,
                u64 seed, u64 campaign_ticks);

    StackServer(const StackServer &) = delete;
    StackServer &operator=(const StackServer &) = delete;
    ~StackServer();

    // ---- Serial-phase interface (campaign loop, coordinator) ------
    //
    // CITADEL_REQUIRES(kSerialPhase) is the phase discipline made
    // checkable: these methods mutate or read state that step() also
    // touches, so they are legal only while the campaign loop holds
    // the serial-phase role (ThreadPool worker lambdas start with an
    // empty capability set and cannot call them).

    /** Offer a request; false when the bounded queue is full or the
     *  server cannot accept (crashed/fenced servers never ack). */
    bool enqueue(const Request &r) CITADEL_REQUIRES(kSerialPhase);

    /** Chaos controls (fail-stop crash, stall window, slowdown). */
    void crash() CITADEL_REQUIRES(kSerialPhase);
    void stall(u64 until_tick) CITADEL_REQUIRES(kSerialPhase);
    void slowdown(u64 until_tick, u32 divisor)
        CITADEL_REQUIRES(kSerialPhase);

    /** Coordinator eviction: stop serving, remain a repair source. */
    void fence() CITADEL_REQUIRES(kSerialPhase);

    // ---- Elastic lifecycle (DESIGN.md §16) ------------------------
    //
    // Every transition below routes through the fleet_types.h table;
    // the only way back into Serving is Warming -> Up via admit().

    /** Process restart after a fail-stop crash: Crashed -> Fenced.
     *  DRAM contents are gone — the KV store comes back empty and the
     *  server must warm-fill before it can serve again. The device
     *  fault state persists (hardware does not heal on reboot). */
    void restart() CITADEL_REQUIRES(kSerialPhase);

    /** Begin a warm fill: Fenced -> Warming. Resets the running
     *  warm-stream CRC (a restarted scan re-handshakes from zero;
     *  re-streamed records max-merge idempotently). */
    void beginWarming() CITADEL_REQUIRES(kSerialPhase);

    /**
     * Apply one warm-fill frame (a wire-encoded RequestBatch of Write
     * records streamed from live replicas). Each record max-merges
     * into the KV store and folds into the warm CRC the admission
     * handshake checks. Only legal while Warming. Returns the number
     * of records applied.
     */
    u32 warmFrame(std::span<const u8> frame)
        CITADEL_REQUIRES(kSerialPhase);

    /**
     * Admission handshake: Warming -> Up, the single re-entry into
     * Serving. `expectedCrc` is the coordinator's record CRC over
     * everything it streamed; a mismatch is fatal — the warm stream
     * never crosses the chaos-faulted path, so disagreement is a
     * protocol bug, not weather.
     */
    void admit(u32 expectedCrc) CITADEL_REQUIRES(kSerialPhase);

    /** Abandon a warm fill (retry budget exhausted): Warming ->
     *  Fenced. Partial warm data is kept — it is correct, merely
     *  incomplete, and a later attempt re-streams over it. */
    void abortWarming() CITADEL_REQUIRES(kSerialPhase);

    /** Install a replica copy (coordinator-driven re-replication).
     *  Max-merge on version, mirroring the write path. */
    void applyReplica(u64 key, u64 version, u64 value)
        CITADEL_REQUIRES(kSerialPhase);

    /** Does the server answer a health probe at `tick`? */
    bool respondsToProbe(u64 tick) const CITADEL_REQUIRES(kSerialPhase);

    /** Can the coordinator still read this server's data? (Everything
     *  but a crash: fenced and stalled state is intact.) */
    bool dataReadable() const { return state_ != ServerState::Crashed; }

    /** Serving client traffic (in-ring health). */
    bool serving() const { return serverStateServing(state_); }

    ServerState state() const { return state_; }
    const ServerStats &stats() const { return stats_; }

    /** Keys this server holds a replica of. */
    u64 kvCount() const CITADEL_REQUIRES(kSerialPhase);

    /**
     * Resumable ascending-key scan over the KV store — the cursor the
     * coordinator's repair pump walks. With have=false, yields the
     * smallest key; with
     * have=true, the smallest key > `from`. Returns false when the
     * scan is exhausted.
     */
    bool kvScan(bool have, u64 from, u64 &key, u64 &version,
                u64 &value) const CITADEL_REQUIRES(kSerialPhase);

    /** Newest (version, value) of a key, or (0, 0) if absent; fatal
     *  for a key outside the key space. */
    std::pair<u64, u64> lookup(u64 key) const
        CITADEL_REQUIRES(kSerialPhase);

    /** Device health for placement decisions (capacityFraction falls
     *  as the degradation ladder bites). */
    RasHealthSignals health() const CITADEL_REQUIRES(kSerialPhase);

    const LiveRasDatapath &datapath() const { return *dp_; }
    u32 serviceUnitsPerTick() const { return serviceUnits_; }

    /** Fold KV state, device state and stats into a fingerprint. */
    void serialize(ByteSink &sink) const CITADEL_REQUIRES(kSerialPhase);

    /**
     * Full checkpoint of the server's mutable state: lifecycle +
     * chaos windows, inbox/outbox contents, KV store, stats, warm
     * CRC, datapath tick guard, and the LiveRasDatapath checkpoint
     * (which includes faults still scheduled to land). loadState()
     * must be called on a server constructed from the identical
     * (config, key space, seed, campaign_ticks) — construction-derived
     * state (calibration, canonical aging schedule) is not serialized.
     */
    void saveState(ByteSink &sink) const CITADEL_REQUIRES(kSerialPhase);
    void loadState(ByteSource &src) CITADEL_REQUIRES(kSerialPhase);

    // ---- Parallel-phase interface ---------------------------------

    /** Consume the inbox within this tick's service budget; responses
     *  land in outbox() in arrival order. Touches only this server.
     *  EXCLUDES documents the split: the campaign loop must drop the
     *  serial-phase role before fanning steps out to the pool. */
    void step(u64 tick) CITADEL_EXCLUDES(kSerialPhase);

    /** Responses produced by the last step(); drained serially. */
    std::vector<Response> &outbox() CITADEL_REQUIRES(kSerialPhase)
    {
        return outbox_;
    }

  private:
    LineAddr lineFor(u64 key) const;
    u64 cycleOf(u64 tick) const;
    void calibrate(u64 seed);
    void scheduleAging(u64 seed, u64 campaign_ticks);
    Response serve(const Request &r, u64 cycle);

    /** The only writer of state_: dies on an edge the fleet_types.h
     *  transition table does not allow. */
    void setState(ServerState to);

    // Phase-agnostic KV access: per-server state reached either from
    // the owner's step() (parallel phase) or through the annotated
    // serial-phase wrappers above — never both at once.
    std::pair<u64, u64> lookupLocal(u64 key) const;
    void storeLocal(u64 key, u64 version, u64 value);

    /** Saved form of the inbox ring: the queued count (u32), then the
     *  requests in FIFO order (head and count collapse to a plain
     *  sequence). */
    template <class Server> struct SavedInbox
    {
        explicit SavedInbox(Server &s) : server(s) {}
        Server &server;
        void saveState(ByteSink &sink) const;
        void loadState(ByteSource &src);
    };

    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self);

    ServerIdx index_;
    ServerConfig cfg_;
    std::unique_ptr<LiveRasDatapath> dp_;

    ServerState state_ = ServerState::Up;
    u64 stalledUntil_ = 0;
    u64 slowedUntil_ = 0;
    u32 slowDivisor_ = 1;

    u32 serviceUnits_;
    u64 baseCycle_ = 0; ///< Datapath cycles consumed by calibration.
    u64 lastCycle_ = 0; ///< Monotonic tick guard for the datapath.

    // Bounded inbox as a flat ring (fixed queueCap-sized vector):
    // byte-identical FIFO semantics to the former std::deque with no
    // block allocation on the serving hot path.
    std::vector<Request> inbox_;
    u32 inboxHead_ = 0;
    u32 inboxCount_ = 0;
    std::vector<Response> outbox_;

    /** KV store: key -> (version, value); version 0 = absent. */
    static constexpr std::pair<u64, u64> kAbsent{0, 0};
    std::vector<std::pair<u64, u64>> kv_;
    ServerStats stats_;
    u32 warmCrc_ = 0; ///< Running warm-stream record CRC (handshake).
};

} // namespace fleet
} // namespace citadel

#endif // CITADEL_FLEET_STACK_SERVER_H
