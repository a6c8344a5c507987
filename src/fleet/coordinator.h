/**
 * @file
 * Fleet coordinator: placement, health checking, failover,
 * re-replication — and the elastic half of the control plane
 * (DESIGN.md §16): server join/rejoin and load-driven hot-shard
 * migration.
 *
 * The coordinator owns the consistent-hash ring. Every `healthEvery`
 * ticks it probes each in-ring server; `failThreshold` consecutive
 * missed probes (crash, or a stall outlasting the probe window) evict
 * the server — removed from the ring and *fenced*, so a stalled
 * process that wakes up after eviction finds itself out of the ring
 * and serves nothing (no split brain). Eviction also fires when a
 * stack's usable capacity, reported by the degradation ladder through
 * RasHealthSignals, falls below a fixed capacity floor: the fleet
 * migrates shards off degrading stacks before they fail outright.
 *
 * Every topology change schedules a re-replication scan: surviving
 * copies of every key are pushed to the key's new replica set at a
 * bounded per-tick rate, restoring the replication factor that makes
 * the next failure survivable. Fenced servers still serve as
 * repair *sources* (their state is intact — they are drained, not
 * dead); crashed servers are unreadable.
 *
 * Join (the inverse of eviction): a Fenced server that asks to rejoin
 * via requestJoin() enters Warming. Each tick the warm pump streams
 * the server its *prospective* shard — every key placementPlus() says
 * it would own once in the ring — from live replicas, as wire-encoded
 * RequestBatch frames, while client traffic still routes around it.
 * Ring churn mid-scan (an eviction or another admission bumps the
 * epoch) restarts the scan with bounded backoff; exhausting the
 * attempt budget aborts back to Fenced. When the scan completes, the
 * coordinator and server compare running CRC-32s over every streamed
 * (key, version, value) — the warming handshake — and only a match
 * admits the server: ring add, epoch bump, Warming -> Up. A follow-up
 * repair scan then closes the staleness window (writes that landed
 * while the scan was in flight).
 *
 * Rebalance (off by default): when enabled, each send is counted per
 * server and per key; every probe round folds the counts into a
 * per-server EWMA. A server whose EWMA exceeds kOverloadFactor times
 * the in-ring mean for kHotRounds consecutive rounds (hysteresis)
 * sheds its hottest keys — at most kMigratePerRound per round (rate
 * cap), each with a fixed per-key cooldown — to the coolest serving
 * server via a placement override applied on top of the ring walk.
 * A mean EWMA below kMinRoundLoad moves nothing (coordinator.cc).
 *
 * Everything here runs in the campaign's serial phase in server-index
 * order: deterministic by construction.
 */

#ifndef CITADEL_FLEET_COORDINATOR_H
#define CITADEL_FLEET_COORDINATOR_H

#include <memory>
#include <vector>

#include "fleet/hash_ring.h"
#include "fleet/stack_server.h"
#include "fleet/wire.h"

namespace citadel {
namespace fleet {

/** Coordinator tunables. The ring, repair, warm-fill and rebalance
 *  rates are constants in coordinator.cc. */
struct CoordinatorOptions
{
    u64 healthEvery = 16;  ///< Probe period. test-only: fixtures use 8.
    u32 failThreshold = 3; ///< Misses to evict. test-only: fixtures use 2.

    // Elasticity: load-driven rebalance (CITADEL_FLEET_REBALANCE /
    // FleetConfig turns it on; the default keeps capacity-driven
    // migration as the only mover, matching pre-elasticity behavior).
    bool rebalanceEnabled = false;

    void validate() const;
};

class Coordinator
{
  public:
    /** `fleet` is borrowed and must outlive the coordinator; keys
     *  are in [0, key_space), the span the placement memo covers. */
    Coordinator(const CoordinatorOptions &opts, u32 replication,
                u64 seed, u64 key_space,
                std::vector<std::unique_ptr<StackServer>> &fleet);

    // Everything below runs in the campaign's serial phase: the
    // coordinator reaches into every server (probes, repairs, fences,
    // warm fills), so none of it may overlap the parallel step fan-out.

    /**
     * Current replica set of a key, primary first: the ring walk,
     * with any live rebalance override applied on top. The result is
     * memoized per key and stamped with the ring epoch; a ring change
     * (overrides are dropped only with one) invalidates every entry
     * and setting an override invalidates its key, so a call is a
     * stamp check and a copy. The memo never changes a result.
     */
    void placement(u64 key, std::vector<ServerIdx> &out) const
        CITADEL_REQUIRES(kSerialPhase);

    /** Serial-phase duties: probe round + rebalance (on schedule),
     *  evictions, the warm pump, and the bounded repair pump. */
    void tick(u64 now, FleetCounters &counters)
        CITADEL_REQUIRES(kSerialPhase);

    /**
     * A Fenced server (previously evicted, or freshly restarted after
     * a crash) asks to rejoin: it enters Warming and the warm pump
     * starts streaming it its prospective shard. If the server is
     * somehow still in the ring (it crashed and restarted faster than
     * probes could evict it), it is first removed — its DRAM is gone,
     * so its old membership is a lie. Ignored unless Fenced.
     */
    void requestJoin(ServerIdx s, u64 now, FleetCounters &counters)
        CITADEL_REQUIRES(kSerialPhase);

    /** Run the repair pump to completion (end-of-campaign settle, so
     *  the durability audit sees a fully re-replicated fleet). */
    void drainRepairs(FleetCounters &counters)
        CITADEL_REQUIRES(kSerialPhase);

    /**
     * Drain warm fills *and* repairs to completion (`now` continues
     * from the campaign's last tick so warm backoff windows elapse).
     * Every join in flight either admits or exhausts its attempt
     * budget; afterwards warming() and repairing() are both false.
     */
    void drainElastic(u64 now, FleetCounters &counters)
        CITADEL_REQUIRES(kSerialPhase);

    /** In the ring and serving. */
    bool inService(ServerIdx s) const CITADEL_REQUIRES(kSerialPhase);

    const HashRing &ring() const { return ring_; }

    /** Repair backlog still pending? */
    bool repairing() const { return scanning_ || rescanNeeded_; }

    /** Any join (warm fill) still in flight? */
    bool warming() const;

    /** Count each request routed toward `server` (load tracking for
     *  the rebalancer; no-op unless rebalance is enabled). */
    void noteLoad(ServerIdx server, u64 key)
        CITADEL_REQUIRES(kSerialPhase);

    /** Checkpoint the full coordinator state (ring membership + epoch,
     *  probe misses, repair cursor, warm scans, load/EWMA/override
     *  state). The placement cache is not state — it is rebuilt
     *  lazily and bit-identically after loadState(). The state is
     *  also the coordinator's share of the campaign fingerprint. */
    void saveState(ByteSink &sink) const CITADEL_REQUIRES(kSerialPhase);
    void loadState(ByteSource &src) CITADEL_REQUIRES(kSerialPhase);

  private:
    /** One in-flight join: the warm scan cursor plus its handshake
     *  CRC and retry budget. */
    struct WarmState
    {
        bool active = false;
        u32 attempts = 0;
        u64 resumeAt = 0;     ///< Backoff gate (ticks).
        u64 epochAtStart = 0; ///< Ring epoch this scan is valid for.
        ServerIdx srcServer = 0;
        bool haveLast = false;
        u64 lastKey = 0;
        u32 crc = 0;      ///< Coordinator-side streamed-record CRC.
        u64 records = 0;  ///< Records streamed this scan.

        friend void fields(auto &io, Of<WarmState> auto &w)
        {
            io(w.active, w.attempts, w.resumeAt, w.epochAtStart,
               w.srcServer, w.haveLast, w.lastKey, w.crc, w.records);
        }
    };

    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self);

    void evict(ServerIdx s, bool capacity, FleetCounters &counters)
        CITADEL_REQUIRES(kSerialPhase);
    void pumpRepair(u32 budget, FleetCounters &counters)
        CITADEL_REQUIRES(kSerialPhase);
    void pumpWarm(u64 now, FleetCounters &counters)
        CITADEL_REQUIRES(kSerialPhase);
    void restartOrAbortWarm(ServerIdx s, u64 now,
                            FleetCounters &counters)
        CITADEL_REQUIRES(kSerialPhase);
    void rebalance(u64 now, FleetCounters &counters)
        CITADEL_REQUIRES(kSerialPhase);
    void dropOverridesTo(ServerIdx s);

    CoordinatorOptions opts_;
    u32 replication_;
    HashRing ring_;
    std::vector<std::unique_ptr<StackServer>> &fleet_;
    std::vector<u32> missed_; ///< Consecutive missed probes.

    // Re-replication scan cursor (bounded work per tick).
    bool rescanNeeded_ = false;
    bool scanning_ = false;
    ServerIdx scanServer_ = 0;
    bool haveLastKey_ = false;
    u64 lastKey_ = 0;

    // Joins in flight, indexed by server.
    std::vector<WarmState> warm_;
    FrameWriter warmWriter_;

    // Rebalancer state (all zero/empty while disabled). The per-key
    // tables are flat arrays over the key space, indexed by key, each
    // with one value meaning "absent" (0, or kNoServer for overrides),
    // so counting a send is one increment and an override lookup one
    // load; each is checkpointed through keyTable() as the ordered map
    // it stands for.
    std::vector<u64> roundLoad_;  ///< Sends per server since last round.
    std::vector<double> ewma_;    ///< Smoothed per-server load.
    std::vector<u32> hotStreak_;  ///< Consecutive overloaded rounds.
    std::vector<u64> keyLoad_;    ///< Per-key counts (halved each round).
    std::vector<ServerIdx> overrides_; ///< Migrated primary per key.
    std::vector<u64> cooldown_;   ///< Tick a key may move again.

    // Placement memo over the key space: per-key replica sets, the
    // ring walk with the key's override applied, stamped with the ring
    // epoch of the walk that produced them; any membership change
    // bumps the epoch and lazily invalidates everything, and setting
    // an override resets its key's stamp to 0, which no epoch matches.
    mutable std::vector<u64> cacheStamp_;
    mutable std::vector<std::vector<ServerIdx>> cache_;

    std::vector<ServerIdx> scratch_;
    std::vector<std::pair<u64, u64>> hotScratch_; ///< (count, key).
};

} // namespace fleet
} // namespace citadel

#endif // CITADEL_FLEET_COORDINATOR_H
