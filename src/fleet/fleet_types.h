/**
 * @file
 * Shared vocabulary of the fleet memory-pool service (DESIGN.md §12):
 * requests, responses, counters, and the virtual-time conventions that
 * make a multi-server chaos campaign bit-identical for any worker
 * thread count.
 *
 * Time at the fleet layer is a virtual tick counter. One tick is one
 * scheduling round of the campaign loop: clients and the coordinator
 * act in a serial phase, then every stack server consumes its bounded
 * inbox in a parallel phase that touches only per-server state, then
 * responses are collected in server order. Nothing at this layer ever
 * reads a wall clock or an OS thread id, so the only nondeterminism a
 * real ThreadPool could introduce — interleaving — is confined to
 * state that is provably per-server.
 */

#ifndef CITADEL_FLEET_FLEET_TYPES_H
#define CITADEL_FLEET_FLEET_TYPES_H

#include <cstddef>
#include <string>
#include <type_traits>

#include "common/mutex.h"
#include "common/serialize.h"
#include "common/types.h"

namespace citadel {
namespace fleet {

/**
 * The fleet's phase discipline as a checkable capability (DESIGN.md
 * §13). Methods that may only run in the campaign's serial phase —
 * client/coordinator logic, chaos injection, outbox collection, the
 * audit — are annotated CITADEL_REQUIRES(kSerialPhase); the campaign
 * loop takes the role with a scoped ThreadRoleGrant around each serial
 * segment. Parallel-phase code (the step_servers lambda running on
 * ThreadPool workers) is analyzed with an empty capability set, so a
 * call from there into serial-phase state is a compile error under
 * -Wthread-safety. There is no runtime lock: the role is a structural
 * property of the loop in FleetSim::run().
 */
inline ThreadRole kSerialPhase;

/** Index of a stack server within the fleet (not a device coordinate
 *  space: fleet membership is dynamic, device geometry is not). */
using ServerIdx = u32;

/** "No server" sentinel for routing results. */
constexpr ServerIdx kNoServer = 0xFFFFFFFFu;

/** What one request asks a stack server to do. */
enum class OpKind : u8
{
    Read,  ///< Fetch the newest value of a key.
    Write, ///< Apply a versioned value to a key (idempotent).
};

/** Server-side verdict on one request. */
enum class Status : u8
{
    Ok,       ///< Applied / served.
    NotFound, ///< Read of a key no replica has seen (empty result).
    DueData,  ///< Device DUE under the key's line: data unusable here.
    Busy,     ///< Bounded queue full, or the server has been fenced.
};

/**
 * One request on the wire. Requests are value types: duplication (a
 * chaos mode) and hedging both re-send the same bytes, and idempotence
 * comes from (key, version) max-merge on the server, never from
 * delivery discipline.
 */
struct Request
{
    u64 op = 0;      ///< Logical operation id (unique per campaign).
    u32 attempt = 0; ///< Attempt ordinal within the operation.
    u32 replica = 0; ///< Replica slot this attempt targets.
    OpKind kind = OpKind::Read;
    u64 key = 0;
    u64 version = 0; ///< Writes: monotonic per key, assigned by client.
    u64 value = 0;   ///< Writes: payload digest.
};

/** Checkpoint field list (common/serialize.h). The wire's frame
 *  records (wire.cc) use their own, different field order. */
void
fields(auto &io, Of<Request> auto &r)
{
    io(r.op, r.attempt, r.replica);
    io.enumByte(r.kind, OpKind::Write,
                "corrupt checkpoint: unknown request kind %u");
    io(r.key, r.version, r.value);
}

/** One response on the wire. */
struct Response
{
    u64 op = 0;
    u32 attempt = 0;
    u32 replica = 0;
    Status status = Status::Ok;
    u64 version = 0; ///< Reads: version served.
    u64 value = 0;   ///< Reads: payload digest served.
    ServerIdx from = kNoServer;
};

/** Checkpoint field list (common/serialize.h). */
void
fields(auto &io, Of<Response> auto &r)
{
    io(r.op, r.attempt, r.replica);
    io.enumByte(r.status, Status::Busy,
                "corrupt checkpoint: unknown response status %u");
    io(r.version, r.value, r.from);
}

/** Lifecycle of one stack server as the chaos campaign sees it. */
enum class ServerState : u8
{
    Up,      ///< Serving.
    Stalled, ///< Alive but processing nothing (chaos stall window).
    Slowed,  ///< Serving at reduced rate (chaos slowdown window).
    Fenced,  ///< Out of the ring; repair source only.
    Crashed, ///< Fail-stop: queue and device state unreachable.
    Warming, ///< Joining: streaming its shard from live replicas.
};

const char *serverStateName(ServerState s);

/**
 * The server lifecycle as an explicit transition table. The states
 * {Up, Stalled, Slowed} together form *Serving*; the elasticity
 * invariant is that the only edge from outside Serving back in is
 * Warming -> Up (the coordinator's CRC-checked admission), so a
 * fenced or restarted-after-crash server can never slip back into
 * taking reads without a warm fill. StackServer routes every state
 * change through this table and dies on an edge it does not list.
 *
 *   Up      -> Stalled | Slowed | Fenced | Crashed
 *   Stalled -> Up | Slowed | Fenced | Crashed
 *   Slowed  -> Up | Stalled | Fenced | Crashed
 *   Fenced  -> Warming | Crashed
 *   Crashed -> Fenced                       (process restart)
 *   Warming -> Up | Fenced | Crashed        (admit / abort / crash)
 */
bool serverTransitionAllowed(ServerState from, ServerState to);

/** Serving client traffic (the in-ring health predicate). */
inline bool
serverStateServing(ServerState s)
{
    return s == ServerState::Up || s == ServerState::Stalled ||
           s == ServerState::Slowed;
}

/**
 * Campaign-wide totals. Summed in deterministic (serial-phase or
 * server-index) order; part of the result fingerprint, so every field
 * is covered by the thread-count-invariance tests.
 */
struct FleetCounters
{
    // Client-side operation accounting.
    u64 opsIssued = 0;
    u64 opsAcked = 0;      ///< Completed successfully before deadline.
    u64 opsFailed = 0;     ///< Deadline or attempt budget exhausted.
    u64 opsUnresolved = 0; ///< Still in flight when the campaign ended.
    u64 writesAcked = 0;   ///< Subset of opsAcked (the audit set).
    u64 readsDue = 0;      ///< Reads that completed as device-DUE.

    // Retry machinery.
    u64 attempts = 0;       ///< Requests sent (first tries included).
    u64 retries = 0;        ///< Re-sends after timeout/busy.
    u64 backoffTicks = 0;   ///< Virtual ticks spent backing off.
    u64 attemptTimeouts = 0;///< Attempts presumed lost.
    u64 hedges = 0;         ///< Hedged reads issued.
    u64 hedgeWins = 0;      ///< Operations completed by the hedge.
    u64 duplicatesSuppressed = 0; ///< Late/duplicate responses dropped.
    u64 busyRejections = 0; ///< Responses returning Status::Busy.
    u64 dueFailovers = 0;   ///< Reads retried on a replica after DUE.

    // Chaos injection (what the fault injector actually did).
    u64 requestsDropped = 0;
    u64 requestsDuplicated = 0;
    u64 serverCrashes = 0;
    u64 serverStalls = 0;
    u64 serverSlowdowns = 0;

    // Coordinator actions.
    u64 healthProbes = 0;
    u64 probesMissed = 0;
    u64 failovers = 0;        ///< Servers evicted from the ring.
    u64 capacityMigrations = 0; ///< Evictions for degraded capacity.
    u64 repairPushes = 0;     ///< Re-replication copies installed.

    // Elasticity (join / rebalance / checkpoint).
    u64 serverJoins = 0;    ///< Warming servers admitted into the ring.
    u64 warmFills = 0;      ///< Records streamed into warming servers.
    u64 warmRestarts = 0;   ///< Warm scans restarted (ring churn/backoff).
    u64 warmAborts = 0;     ///< Warm attempts abandoned (back to Fenced).
    u64 loadMigrations = 0; ///< Hot shards moved off overloaded servers.
    u64 resumes = 0;        ///< Campaign loadState() calls (see audit()).

    // Server-side service accounting (merged in server order).
    u64 requestsServed = 0;
    u64 serviceUnitsSpent = 0; ///< Work units incl. correction traffic.
    u64 queueRejections = 0;   ///< Arrivals bounced off a full inbox.
    u64 deviceDueReads = 0;    ///< onDemandRead verdicts that were DUE.
    u64 deviceCorrected = 0;   ///< onDemandRead verdicts corrected.

    void add(const FleetCounters &c);

    std::string summary() const;
};

/** Checkpoint field list (common/serialize.h), in declaration order.
 *  Field order is part of the fingerprint contract: append-only. */
void
fields(auto &io, Of<FleetCounters> auto &c)
{
    io(c.opsIssued, c.opsAcked, c.opsFailed, c.opsUnresolved,
       c.writesAcked, c.readsDue, c.attempts, c.retries, c.backoffTicks,
       c.attemptTimeouts, c.hedges, c.hedgeWins, c.duplicatesSuppressed,
       c.busyRejections, c.dueFailovers, c.requestsDropped,
       c.requestsDuplicated, c.serverCrashes, c.serverStalls,
       c.serverSlowdowns, c.healthProbes, c.probesMissed, c.failovers,
       c.capacityMigrations, c.repairPushes, c.serverJoins, c.warmFills,
       c.warmRestarts, c.warmAborts, c.loadMigrations, c.resumes,
       c.requestsServed, c.serviceUnitsSpent, c.queueRejections,
       c.deviceDueReads, c.deviceCorrected);
}

/**
 * Tripwire for the PR-9-style silent-omission bug class: FleetCounters
 * must stay a flat struct of exactly this many u64 fields, and both
 * add() and the field list must cover every one of them. The static
 * asserts below catch a field added to the struct; the property test
 * in tests/test_fleet.cc (FleetCountersTripwire) catches one added to
 * the struct but missed in add() or the field list.
 */
constexpr std::size_t kFleetCounterFields = 36;
static_assert(sizeof(FleetCounters) == kFleetCounterFields * sizeof(u64),
              "FleetCounters changed: update kFleetCounterFields, add(), "
              "fields(), and the tripwire test together");
static_assert(std::is_trivially_copyable_v<FleetCounters>);

} // namespace fleet
} // namespace citadel

#endif // CITADEL_FLEET_FLEET_TYPES_H
