/**
 * @file
 * FleetCampaign: the whole memory-pool service in one deterministic
 * virtual-time loop — clients, coordinator, N stack servers, and the
 * fleet fault injector.
 *
 * Each tick runs three phases:
 *
 *  1. Serial: chaos events fire, due responses are delivered to the
 *     client, client wakeups run, new operations arrive, and the
 *     coordinator probes/evicts/repairs. All cross-server
 *     communication happens here, in fixed order.
 *  2. Parallel: every stack server steps once — consumes its own
 *     inbox against its service budget and advances its own bit-true
 *     datapath. Servers share nothing, so the ThreadPool may execute
 *     them in any order and any interleaving.
 *  3. Serial: outboxes are collected in server-index order and
 *     delivered to the client at the start of the next tick.
 *
 * Because phase 2 touches only per-server state and phases 1/3 are
 * single-threaded, the campaign is bit-identical for any worker
 * thread count — the fingerprint in FleetResult is the proof hook the
 * tests and the load driver check.
 *
 * result() also audits durability: after the coordinator's repair
 * pump drains, every write the client acknowledged must be readable
 * (version >= acked, digest matching) from at least one in-service
 * server. With quorum-2 acks, replication 2, and repair after
 * failover, a single crash can never fail that audit — the chaos e2e
 * test kills each server in turn to enforce exactly this.
 */

#ifndef CITADEL_FLEET_FLEET_SIM_H
#define CITADEL_FLEET_FLEET_SIM_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "fleet/chaos.h"
#include "fleet/client.h"
#include "fleet/coordinator.h"
#include "fleet/stack_server.h"
#include "fleet/traffic.h"
#include "fleet/wire.h"

namespace citadel {
namespace fleet {

/** Full campaign configuration. */
struct FleetConfig
{
    u32 servers = 8; ///< Stack count, in [2, 64] (write-ack bitmask).
    u64 ticks = 4096;

    /** Workload shape. */
    u64 users = 1'000'000; ///< Distinct clients keys are hashed from.
    u64 keySpace = 512;    ///< Distinct keys.
    u32 arrivalsPerTick = 4;
    double writeFraction = 0.5;

    /**
     * Trace-replay spec (fleet/traffic.h grammar); empty replays the
     * uniform arrivals above. A non-empty spec overrides `ticks` with
     * the trace's total length and drives per-tick rate, zipfian key
     * skew, write mix, and bursts. FleetCampaign parses it once and
     * a malformed spec is fatal there.
     */
    std::string traffic;

    /** Replication and ack discipline. */
    u32 replication = 2;
    u32 ackQuorum = 2; ///< <= replication; 2 makes crashes survivable.

    RetryPolicy retry; ///< test-only: carries the fixtures' timings.
    CoordinatorOptions coord;
    ChaosOptions chaos;
    ServerConfig server;

    u64 seed = 1;
    unsigned threads = 0; ///< Worker threads; 0 = CITADEL_THREADS.

    void validate() const;

    /** A chaos-ready configuration on the reduced tiny geometry with
     *  boosted fault rates — the shared baseline of the e2e tests and
     *  the load driver. */
    static FleetConfig demo();
};

/** Per-server slice of the result. */
struct ServerReport
{
    ServerState state = ServerState::Up;
    u64 served = 0;
    u64 rejected = 0;
    u64 dueReads = 0;
    u64 corrected = 0;
    u64 kvKeys = 0;
    u64 divergences = 0; ///< Differential-model mismatches (must be 0).
    u32 serviceUnits = 0;
    /** Usable capacity at end of run; 0 for crashed servers. */
    double capacityFraction = 0.0;
};

/** Campaign outcome. */
struct FleetResult
{
    FleetCounters totals;
    std::vector<ServerReport> servers;

    u32 liveServers = 0;    ///< Still in the ring and serving.
    u64 divergences = 0;    ///< Sum over all servers (must be 0).
    u64 lostAckedWrites = 0;   ///< Durability audit failures.
    u64 corruptAckedWrites = 0;///< Audit digest mismatches.
    u64 auditedWrites = 0;     ///< Keys the audit checked.

    /** Acked-completion latency percentiles in virtual ticks (from
     *  the client's latency histogram; 0 when nothing acked). */
    u64 p50LatencyTicks = 0;
    u64 p99LatencyTicks = 0;

    /** Order-independent digest of totals, ring, acked set + latency
     *  histogram, and every server's (kv + device) state: equal
     *  fingerprints mean equal campaigns, whatever the thread count.
     */
    u64 fingerprint = 0;

    std::string summary() const;
};

class FleetCampaign
{
  public:
    explicit FleetCampaign(const FleetConfig &cfg);
    ~FleetCampaign();

    FleetCampaign(const FleetCampaign &) = delete;
    FleetCampaign &operator=(const FleetCampaign &) = delete;

    /** Script an extra chaos event (tests). Call before run(). */
    void injectChaosEvent(const ChaosEvent &ev);

    /** The sampled + scripted chaos schedule. */
    const std::vector<ChaosEvent> &chaosSchedule() const
    {
        return injector_.schedule();
    }

    /** Run the campaign to completion and audit. Call once. */
    FleetResult run();

    /**
     * Run the campaign loop up to virtual tick `target` (exclusive)
     * and stop at the tick boundary — the checkpointable cut point.
     * Monotonic; `target` <= cfg.ticks. run() == advanceTo(cfg.ticks)
     * + finish().
     */
    void advanceTo(u64 target);

    /** Settle in-flight operations, drain warm fills and repairs
     *  (drainElastic), and audit. Call once, after any advanceTo /
     *  loadState sequence. */
    FleetResult finish();

    /** Ticks executed so far. */
    u64 tick() const { return tick_; }

    /** Campaign length in ticks: cfg.ticks, or the trace's total
     *  length when cfg.traffic is set. */
    u64 totalTicks() const { return cfg_.ticks; }

    /**
     * Campaign checkpoint at a tick boundary (between advanceTo
     * calls): tick and arrival/chaos cursors, loop counters, client,
     * coordinator, every server (full LiveRasDatapath state), and all
     * in-flight responses. Guarded by one u64 digest of the chaos
     * schedule (sampled and scripted events) and the campaign config:
     * FleetConfig's scalars and trace spec, RetryPolicy,
     * CoordinatorOptions, the chaos network odds, and ServerConfig's
     * scalar fields. loadState() refuses a checkpoint whose digest
     * differs. threads is deliberately left out, so a checkpoint
     * resumes under any thread count; the nested
     * device configs (sim, ras, faults) are not covered.
     * loadState() counts into FleetCounters::resumes, which audit()
     * zeroes for the fingerprint — a resumed campaign fingerprints
     * bit-identically to an uninterrupted one, whatever the cut point
     * or thread count.
     */
    void saveState(ByteSink &sink) const;
    void loadState(ByteSource &src);

    const Coordinator &coordinator() const { return *coordinator_; }
    const StackServer &server(ServerIdx s) const { return *fleet_[s]; }

  private:
    // Serial-phase segments of the campaign loop. run() takes the
    // kSerialPhase role with a scoped ThreadRoleGrant around phases 1
    // and 3 and drops it across the parallel step fan-out, so calling
    // any of these from worker code fails to compile under
    // -Wthread-safety.
    void applyChaos(u64 tick, FleetCounters &c)
        CITADEL_REQUIRES(kSerialPhase);
    void deliverDue(u64 tick) CITADEL_REQUIRES(kSerialPhase);
    void arrivals(u64 tick) CITADEL_REQUIRES(kSerialPhase);
    void collectOutboxes() CITADEL_REQUIRES(kSerialPhase);
    void sendToServer(const Request &r, ServerIdx s)
        CITADEL_REQUIRES(kSerialPhase);
    void flushFrames() CITADEL_REQUIRES(kSerialPhase);
    FleetResult audit(FleetCounters totals)
        CITADEL_REQUIRES(kSerialPhase);

    /** Parallel phase: fan server steps out to the pool (or run them
     *  inline single-threaded). Must not hold the serial role. */
    void stepServers() CITADEL_EXCLUDES(kSerialPhase);

    /** The checkpoint compatibility guard: a digest of the chaos
     *  schedule and the state-shaping config (see saveState). */
    u64 checkpointGuard() const;

    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self)
        CITADEL_REQUIRES(kSerialPhase);

    /** The public constructor parses cfg.traffic once, into
     *  `traffic`, and lands here. */
    FleetCampaign(const FleetConfig &cfg, TrafficModel traffic);

    FleetConfig cfg_;
    FleetFaultInjector injector_;
    std::vector<std::unique_ptr<StackServer>> fleet_;
    std::unique_ptr<Coordinator> coordinator_;
    FleetClient client_;
    TrafficModel traffic_; ///< Active iff cfg_.traffic is non-empty.
    std::unique_ptr<ThreadPool> pool_; ///< Lives across advanceTo calls.

    u64 tick_ = 0;
    u64 nextOp_ = 0; ///< Trace-mode dense operation-id counter.
    std::size_t nextEvent_ = 0;

    // The wire path: each server's open request frame, filled as the
    // client sends, and the allocation-free delivery structures.
    Transport transport_;
    std::vector<FrameWriter> reqFrames_;
    FrameWriter respWriter_;
    /** In-flight responses: filled during tick t (Busy synths, then
     *  server outboxes) and drained in insertion order by
     *  deliverDue(t + 1). Every response is due exactly one tick
     *  later (never the same tick, which would make request/response
     *  cycles order-dependent), so nothing is keyed by tick. */
    std::vector<Response> responses_;
    /** Per-server global send sequences of the requests framed since
     *  the last flush: maps decoded record index back to send order. */
    std::vector<std::vector<u32>> seqScratch_;
    u32 seqNext_ = 0; ///< Next global send sequence; flushFrames resets.
    /** Busy synths collected during a flush, sorted by submission
     *  sequence before joining responses_ so the client sees them in
     *  global send order. */
    std::vector<std::pair<u32, Response>> busyScratch_;

    FleetCounters loopCounters_; ///< Chaos + network accounting.
    bool finished_ = false;
};

} // namespace fleet
} // namespace citadel

#endif // CITADEL_FLEET_FLEET_SIM_H
