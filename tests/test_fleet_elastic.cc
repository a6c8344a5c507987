/**
 * @file
 * Fleet elasticity tests (DESIGN.md §16): server join/rejoin through
 * the Fenced -> Warming -> Serving path, the warm-fill CRC handshake,
 * load-driven hot-shard migration under zipf skew, and the campaign
 * checkpoint/resume contract — a resumed campaign must fingerprint
 * bit-identically to an uninterrupted one, at any cut point, for any
 * thread count, under full chaos.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_sim.h"
#include "threadsafe_death.h"

using namespace citadel;
using namespace citadel::fleet;

namespace {

FleetConfig
elasticConfig()
{
    FleetConfig cfg = FleetConfig::demo();
    cfg.servers = 4;
    cfg.ticks = 384;
    cfg.users = 1000;
    cfg.keySpace = 96;
    cfg.arrivalsPerTick = 3;
    cfg.retry.attemptTimeout = 24;
    cfg.retry.opDeadline = 320;
    cfg.retry.hedgeAfter = 8;
    cfg.retry.maxAttempts = 6;
    cfg.coord.healthEvery = 8;
    cfg.coord.failThreshold = 2;
    cfg.server.defaultServiceUnits = 24;
    cfg.server.calibrationInsns = 0;
    cfg.threads = 1;
    return cfg;
}

// The death suites fork after campaigns have run, while the pool's
// worker threads are alive.
using ServerLifecycleDeath = testing_helpers::ThreadsafeDeathTest;
using ElasticCheckpointDeath = testing_helpers::ThreadsafeDeathTest;

// ---- The transition table ------------------------------------------

// The elasticity invariant, checked exhaustively over every state
// pair: the only edge from outside Serving back into Serving is
// Warming -> Up (the coordinator's CRC-checked admission).
TEST(ServerLifecycle, OnlyWarmingReentersServing)
{
    const ServerState all[] = {
        ServerState::Up,      ServerState::Stalled,
        ServerState::Slowed,  ServerState::Fenced,
        ServerState::Crashed, ServerState::Warming,
    };
    for (const ServerState from : all) {
        for (const ServerState to : all) {
            const bool allowed = serverTransitionAllowed(from, to);
            SCOPED_TRACE(std::string(serverStateName(from)) + " -> " +
                         serverStateName(to));
            if (from == to) {
                EXPECT_FALSE(allowed); // Self-loops are not edges.
            }
            if (!serverStateServing(from) && serverStateServing(to) &&
                allowed) {
                EXPECT_EQ(from, ServerState::Warming);
                EXPECT_EQ(to, ServerState::Up);
            }
        }
    }
    // The table's positive spine: restart -> warm -> admit.
    EXPECT_TRUE(serverTransitionAllowed(ServerState::Crashed,
                                        ServerState::Fenced));
    EXPECT_TRUE(serverTransitionAllowed(ServerState::Fenced,
                                        ServerState::Warming));
    EXPECT_TRUE(serverTransitionAllowed(ServerState::Warming,
                                        ServerState::Up));
    // And the edges the invariant exists to forbid.
    EXPECT_FALSE(serverTransitionAllowed(ServerState::Fenced,
                                         ServerState::Up));
    EXPECT_FALSE(serverTransitionAllowed(ServerState::Crashed,
                                         ServerState::Up));
    EXPECT_FALSE(serverTransitionAllowed(ServerState::Crashed,
                                         ServerState::Warming));
    EXPECT_FALSE(serverTransitionAllowed(ServerState::Up,
                                         ServerState::Warming));
}

TEST_F(ServerLifecycleDeath, IllegalEdgesAreFatal)
{
    const ServerConfig scfg = elasticConfig().server;
    StackServer srv(0, scfg, /*key_space=*/96, /*seed=*/1,
                    /*campaign_ticks=*/64);
    ThreadRoleGrant serial(kSerialPhase);
    srv.crash();
    srv.restart();
    ASSERT_EQ(srv.state(), ServerState::Fenced);
    // Fenced -> Up without warming: the exact bypass the table exists
    // to make impossible.
    EXPECT_DEATH(srv.admit(0), "admit outside Warming");
}

// ---- Join / rejoin e2e ---------------------------------------------

TEST(ElasticJoin, CrashedServerRejoinsWarmFilledAndServing)
{
    // Kill each server in turn, restart it 64 ticks later, and demand
    // the full rejoin path: eviction, warm fill from live replicas,
    // CRC-checked admission, and a clean durability audit with the
    // whole fleet back in service.
    for (u32 victim = 0; victim < 4; ++victim) {
        FleetConfig cfg = elasticConfig();
        cfg.chaos.enabled = false;
        FleetCampaign campaign(cfg);

        ChaosEvent kill;
        kill.kind = ChaosEvent::Kind::Crash;
        kill.server = victim;
        kill.tick = 96;
        campaign.injectChaosEvent(kill);
        ChaosEvent back;
        back.kind = ChaosEvent::Kind::Restart;
        back.server = victim;
        back.tick = 160;
        campaign.injectChaosEvent(back);

        const FleetResult res = campaign.run();
        SCOPED_TRACE("victim " + std::to_string(victim));
        EXPECT_EQ(res.totals.serverCrashes, 1u);
        EXPECT_GE(res.totals.failovers, 1u);
        EXPECT_GE(res.totals.serverJoins, 1u);
        EXPECT_GT(res.totals.warmFills, 0u);
        EXPECT_EQ(res.totals.warmAborts, 0u);

        // The whole fleet is back: the rejoined server is serving and
        // in the ring.
        EXPECT_EQ(res.liveServers, 4u);
        ASSERT_EQ(res.servers.size(), 4u);
        EXPECT_EQ(res.servers[victim].state, ServerState::Up);
        EXPECT_GT(res.servers[victim].kvKeys, 0u);

        // Durability across the crash + rejoin.
        EXPECT_GT(res.auditedWrites, 0u);
        EXPECT_EQ(res.lostAckedWrites, 0u);
        EXPECT_EQ(res.corruptAckedWrites, 0u);
        EXPECT_EQ(res.divergences, 0u);
    }
}

TEST(ElasticJoin, EvictedButAliveServerRejoinsWithoutRestart)
{
    // A long stall gets a server evicted (probes missed) without a
    // crash; once the stall window ends a scripted Restart event asks
    // the (Fenced, data intact) server to rejoin.
    FleetConfig cfg = elasticConfig();
    cfg.chaos.enabled = false;
    FleetCampaign campaign(cfg);

    ChaosEvent stall;
    stall.kind = ChaosEvent::Kind::Stall;
    stall.server = 2;
    stall.tick = 96;
    stall.duration = 48; // Outlasts failThreshold * healthEvery.
    campaign.injectChaosEvent(stall);
    ChaosEvent back;
    back.kind = ChaosEvent::Kind::Restart;
    back.server = 2;
    back.tick = 192;
    campaign.injectChaosEvent(back);

    const FleetResult res = campaign.run();
    EXPECT_EQ(res.totals.serverCrashes, 0u);
    EXPECT_GE(res.totals.failovers, 1u);
    EXPECT_GE(res.totals.serverJoins, 1u);
    EXPECT_EQ(res.liveServers, 4u);
    EXPECT_EQ(res.servers[2].state, ServerState::Up);
    EXPECT_EQ(res.lostAckedWrites, 0u);
    EXPECT_EQ(res.corruptAckedWrites, 0u);
}

TEST(ElasticJoin, SampledCrashesRejoinViaDerivedRestarts)
{
    // Full chaos with restartAfterTicks: every sampled crash (and
    // every stall-eviction) derives a restart, and the campaign must
    // end with every server rejoined and serving — including events
    // near the campaign end whose restart lands after the last tick
    // (finish() fires those before the elastic drain).
    FleetConfig cfg = elasticConfig();
    cfg.chaos.crashes = 2;
    cfg.chaos.restartAfterTicks = 64;
    cfg.seed = 5;
    FleetCampaign campaign(cfg);
    const FleetResult res = campaign.run();
    EXPECT_GE(res.totals.serverCrashes, 1u);
    EXPECT_GE(res.totals.serverJoins, res.totals.serverCrashes);
    EXPECT_EQ(res.liveServers, 4u);
    for (u32 s = 0; s < 4; ++s)
        EXPECT_TRUE(serverStateServing(res.servers[s].state))
            << "server " << s;
    EXPECT_EQ(res.lostAckedWrites, 0u);
    EXPECT_EQ(res.corruptAckedWrites, 0u);
    EXPECT_EQ(res.divergences, 0u);
}

TEST(ElasticJoin, RestartScheduleDisabledKeepsCrashesPermanent)
{
    // restartAfterTicks = 0 must reproduce pre-elasticity behavior
    // exactly: same schedule, no joins, crashed server stays out.
    FleetConfig cfg = elasticConfig();
    cfg.chaos.crashes = 1;
    cfg.seed = 5;
    FleetCampaign withOff(cfg);
    cfg.chaos.restartAfterTicks = 64;
    FleetCampaign withOn(cfg);
    // The derived restarts perturb no other event's placement: one
    // per crash and one per stall (two stalls per campaign).
    const auto &off = withOff.chaosSchedule();
    const auto &on = withOn.chaosSchedule();
    ASSERT_EQ(on.size(), off.size() + 3);
    std::size_t j = 0;
    for (const ChaosEvent &ev : on) {
        if (ev.kind == ChaosEvent::Kind::Restart)
            continue;
        ASSERT_LT(j, off.size());
        EXPECT_EQ(ev.tick, off[j].tick);
        EXPECT_EQ(ev.server, off[j].server);
        EXPECT_EQ(static_cast<int>(ev.kind),
                  static_cast<int>(off[j].kind));
        ++j;
    }
    EXPECT_EQ(j, off.size());

    const auto crash = std::find_if(
        off.begin(), off.end(), [](const ChaosEvent &ev) {
            return ev.kind == ChaosEvent::Kind::Crash;
        });
    ASSERT_NE(crash, off.end());

    const FleetResult res = withOff.run();
    EXPECT_EQ(res.totals.serverJoins, 0u);
    EXPECT_EQ(res.totals.warmFills, 0u);
    EXPECT_EQ(res.servers[crash->server].state, ServerState::Crashed);
}

// ---- Load-driven rebalance -----------------------------------------

FleetConfig
rebalanceConfig()
{
    FleetConfig cfg = elasticConfig();
    cfg.chaos.enabled = false;
    cfg.ticks = 1; // Overridden by the trace.
    // Heavy zipf skew concentrates load on a handful of keys; their
    // primaries overload while the rest of the fleet idles.
    cfg.traffic = "ticks=320,rate=6,write=0.5,zipf=1.2";
    cfg.coord.rebalanceEnabled = true;
    return cfg;
}

TEST(ElasticRebalance, ZipfSkewMigratesHotShards)
{
    FleetCampaign campaign(rebalanceConfig());
    const FleetResult res = campaign.run();
    EXPECT_GE(res.totals.loadMigrations, 1u);
    // Migration must never cost durability.
    EXPECT_GT(res.auditedWrites, 0u);
    EXPECT_EQ(res.lostAckedWrites, 0u);
    EXPECT_EQ(res.corruptAckedWrites, 0u);
    EXPECT_EQ(res.divergences, 0u);
    EXPECT_EQ(res.liveServers, 4u);
}

TEST(ElasticRebalance, DisabledByDefaultMovesNothing)
{
    FleetConfig cfg = rebalanceConfig();
    cfg.coord.rebalanceEnabled = false;
    FleetCampaign campaign(cfg);
    const FleetResult res = campaign.run();
    EXPECT_EQ(res.totals.loadMigrations, 0u);
    EXPECT_EQ(res.lostAckedWrites, 0u);
}

TEST(ElasticRebalance, InvariantAcrossThreadCounts)
{
    // Rebalance decisions (EWMA folds, hot-key sorts, overrides) are
    // serial-phase state: the fingerprint must not see thread count.
    FleetResult ref;
    bool haveRef = false;
    for (const unsigned threads : {1u, 3u}) {
        FleetConfig cfg = rebalanceConfig();
        cfg.threads = threads;
        FleetCampaign campaign(cfg);
        const FleetResult res = campaign.run();
        if (!haveRef) {
            ref = res;
            haveRef = true;
            EXPECT_GE(res.totals.loadMigrations, 1u);
            continue;
        }
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(res.fingerprint, ref.fingerprint);
        EXPECT_EQ(res.totals.loadMigrations,
                  ref.totals.loadMigrations);
    }
}

// Which keys each rebalance round moves, pinned end to end: a longer
// zipf-1.2 trace under chaos, where the halved per-key counts are
// small and equal counts are common, so the (count desc, key asc)
// order decides which loaded keys move. The fingerprint and the bytes
// of a mid-run checkpoint (load counts, overrides, cooldowns) were
// captured from the fully sorting rebalancer; a pick that moves a
// different key moves them.
TEST(FleetElastic, RebalanceMovesArePinned)
{
    FleetConfig cfg = elasticConfig();
    cfg.traffic = "ticks=768,rate=6,write=0.5,zipf=1.2";
    cfg.chaos.restartAfterTicks = 48;
    cfg.coord.rebalanceEnabled = true;
    cfg.seed = 5;

    FleetCampaign cut(cfg);
    cut.advanceTo(400);
    ByteSink sink;
    cut.saveState(sink);
    EXPECT_EQ(fnv1a(sink.bytes()), 0xeb81fd4fb6fe7b83ull);

    FleetCampaign campaign(cfg);
    const FleetResult res = campaign.run();
    EXPECT_GE(res.totals.loadMigrations, 64u);
    EXPECT_EQ(res.lostAckedWrites, 0u);
    EXPECT_EQ(res.fingerprint, 0x28ba9b676c3c8645ull);
}

// ---- Checkpoint / resume -------------------------------------------

FleetConfig
checkpointConfig()
{
    // Everything on at once: chaos (crashes + derived restarts,
    // stalls, slowdowns, drops, dups), rebalance, the framed wire —
    // the checkpoint must capture all of it. The zipf trace skews
    // load enough to migrate at the rebalance constants.
    FleetConfig cfg = elasticConfig();
    cfg.ticks = 192;
    cfg.traffic = "ticks=192,rate=6,write=0.5,zipf=1.2";
    cfg.chaos.restartAfterTicks = 48;
    cfg.coord.rebalanceEnabled = true;
    cfg.seed = 3;
    return cfg;
}

TEST(ElasticCheckpoint, ResumeIsBitIdenticalAtAnyCutPoint)
{
    const FleetConfig cfg = checkpointConfig();
    FleetCampaign reference(cfg);
    const FleetResult ref = reference.run();
    ASSERT_GT(ref.totals.opsAcked, 0u);
    ASSERT_NE(ref.fingerprint, 0u);
    ASSERT_GE(ref.totals.loadMigrations, 1u);
    EXPECT_EQ(ref.totals.resumes, 0u);

    // Cut points: first tick, mid-chaos, one tick before the end.
    for (const u64 cut : {u64{1}, u64{97}, cfg.ticks - 1}) {
        FleetCampaign first(cfg);
        first.advanceTo(cut);
        ByteSink sink;
        first.saveState(sink);

        // Resume into a fresh campaign — and a different thread count
        // than the one that produced the checkpoint.
        FleetConfig cfg2 = cfg;
        cfg2.threads = 3;
        FleetCampaign second(cfg2);
        ByteSource src(sink.bytes());
        second.loadState(src);
        EXPECT_EQ(src.remaining(), 0u);
        EXPECT_EQ(second.tick(), cut);

        const FleetResult res = second.finish();
        SCOPED_TRACE("cut " + std::to_string(cut));
        EXPECT_EQ(res.fingerprint, ref.fingerprint);
        EXPECT_EQ(res.totals.opsAcked, ref.totals.opsAcked);
        EXPECT_EQ(res.totals.serverJoins, ref.totals.serverJoins);
        EXPECT_EQ(res.totals.loadMigrations,
                  ref.totals.loadMigrations);
        EXPECT_EQ(res.lostAckedWrites, 0u);
        // The resume itself is visible in the counters but not in the
        // fingerprint.
        EXPECT_EQ(res.totals.resumes, 1u);
    }
}

// The exact bytes of a checkpoint cut mid-rebalance (the cut the
// corrupt-state cases below patch). Sizes and fingerprints alone pass
// a symmetric reorder of two client or server fields; this digest does
// not. Captured before the save and load field lists were merged into
// one: a checkpoint layout change must move it on purpose.
TEST(ElasticCheckpoint, CheckpointBytesArePinned)
{
    FleetCampaign campaign(checkpointConfig());
    campaign.advanceTo(160);
    ByteSink sink;
    campaign.saveState(sink);
    EXPECT_EQ(sink.bytes().size(), 35822u);
    EXPECT_EQ(fnv1a(sink.bytes()), 0x10cb21b6f183ed81ull);
}

TEST(ElasticCheckpoint, ChainedResumesStayBitIdentical)
{
    // save -> resume -> save -> resume: resumes compose.
    const FleetConfig cfg = checkpointConfig();
    FleetCampaign reference(cfg);
    const FleetResult ref = reference.run();

    FleetCampaign a(cfg);
    a.advanceTo(64);
    ByteSink s1;
    a.saveState(s1);

    FleetCampaign b(cfg);
    ByteSource r1(s1.bytes());
    b.loadState(r1);
    b.advanceTo(128);
    ByteSink s2;
    b.saveState(s2);

    FleetCampaign c(cfg);
    ByteSource r2(s2.bytes());
    c.loadState(r2);
    const FleetResult res = c.finish();
    EXPECT_EQ(res.fingerprint, ref.fingerprint);
    EXPECT_EQ(res.totals.resumes, 2u);
}

TEST(ElasticCheckpoint, ResumesAcrossThreadCounts)
{
    // Thread count is fingerprint-neutral, so the checkpoint guard
    // leaves it out: a t=1 checkpoint resumes bit-identically into a
    // t=3 campaign.
    FleetConfig cfg = checkpointConfig();
    cfg.threads = 1;
    FleetCampaign reference(cfg);
    const FleetResult ref = reference.run();

    FleetCampaign first(cfg);
    first.advanceTo(97);
    ByteSink sink;
    first.saveState(sink);

    FleetConfig cfg2 = cfg;
    cfg2.threads = 3;
    FleetCampaign second(cfg2);
    ByteSource src(sink.bytes());
    second.loadState(src);
    EXPECT_EQ(src.remaining(), 0u);
    const FleetResult res = second.finish();
    EXPECT_EQ(res.fingerprint, ref.fingerprint);
    EXPECT_EQ(res.totals.opsAcked, ref.totals.opsAcked);
}

TEST_F(ElasticCheckpointDeath, MismatchedScheduleIsRejected)
{
    const FleetConfig cfg = checkpointConfig();
    FleetCampaign first(cfg);
    first.advanceTo(32);
    ByteSink sink;
    first.saveState(sink);

    // A campaign with an extra scripted event has a different chaos
    // schedule: the checkpoint must refuse to load into it.
    FleetCampaign other(cfg);
    ChaosEvent kill;
    kill.kind = ChaosEvent::Kind::Crash;
    kill.server = 1;
    kill.tick = 50;
    other.injectChaosEvent(kill);
    ByteSource src(sink.bytes());
    EXPECT_DEATH(other.loadState(src), "schedule");
}

TEST_F(ElasticCheckpointDeath, MismatchedConfigIsRejected)
{
    // Configs that share the chaos schedule but not the campaign: the
    // guard must refuse each with a diagnostic, never resume into it.
    const FleetConfig cfg = elasticConfig();
    FleetCampaign first(cfg);
    first.advanceTo(97);
    ByteSink sink;
    first.saveState(sink);

    const auto rejects = [&](const char *what, FleetConfig other) {
        SCOPED_TRACE(what);
        FleetCampaign campaign(other);
        ByteSource src(sink.bytes());
        EXPECT_DEATH(campaign.loadState(src),
                     "checkpoint does not match this campaign");
    };
    FleetConfig c = cfg;
    c.writeFraction = 0.8;
    rejects("writeFraction", c);
    c = cfg;
    c.ackQuorum = 1;
    rejects("ackQuorum", c);
    c = cfg;
    c.users = 777;
    rejects("users", c);
}

TEST_F(ElasticCheckpointDeath, CorruptRestoredFleetStateIsFatal)
{
    // Cut mid-rebalance, so the coordinator's key tables (load counts,
    // overrides, cooldowns) hold entries. Each case patches one
    // saved record, and the restore must refuse it with a diagnostic
    // naming the field instead of resuming into broken state.
    const FleetConfig cfg = checkpointConfig();
    FleetCampaign first(cfg);
    first.advanceTo(160);
    ByteSink sink;
    first.saveState(sink);
    const std::vector<u8> &saved = sink.bytes();

    ByteSink coord, freshCoord, server0, print0;
    {
        FleetCampaign fresh(cfg);
        ThreadRoleGrant serial(kSerialPhase);
        first.coordinator().saveState(coord);
        fresh.coordinator().saveState(freshCoord);
        first.server(0).saveState(server0);
        first.server(0).serialize(print0);
    }
    const auto offsetOf = [&](const std::vector<u8> &record) {
        return std::search(saved.begin(), saved.end(), record.begin(),
                           record.end()) -
               saved.begin();
    };
    const auto u64At = [&](std::ptrdiff_t at) {
        u64 v = 0;
        for (int i = 0; i < 8; ++i)
            v |= u64{saved[static_cast<std::size_t>(at + i)]} << (8 * i);
        return v;
    };
    // The coordinator record ends with its three key tables, each a
    // count and then (key, value) entries in key order; everything
    // before them is as long as in a fresh coordinator's record, whose
    // tables are three zero counts.
    const std::ptrdiff_t coordAt = offsetOf(coord.bytes());
    const std::ptrdiff_t serverAt = offsetOf(server0.bytes());
    ASSERT_LT(coordAt, static_cast<std::ptrdiff_t>(saved.size()));
    ASSERT_LT(serverAt, static_cast<std::ptrdiff_t>(saved.size()));
    const std::ptrdiff_t keyLoadAt =
        coordAt +
        static_cast<std::ptrdiff_t>(freshCoord.bytes().size() - 24);
    const u64 nk = u64At(keyLoadAt);
    const std::ptrdiff_t overridesAt =
        keyLoadAt + 8 + static_cast<std::ptrdiff_t>(16 * nk);
    ASSERT_GE(nk, 2u);
    ASSERT_GE(u64At(overridesAt), 1u);
    const std::ptrdiff_t firstKey = keyLoadAt + 8;
    const std::ptrdiff_t secondKey = firstKey + 16;
    const std::ptrdiff_t firstTarget = overridesAt + 8 + 8;

    const auto dies = [&](std::vector<u8> bytes, const char *diag) {
        SCOPED_TRACE(diag);
        FleetCampaign second(cfg);
        ByteSource src(bytes);
        EXPECT_DEATH(second.loadState(src), diag);
    };
    const auto patched = [&](std::ptrdiff_t at, u64 v, int width) {
        std::vector<u8> bytes = saved;
        for (int i = 0; i < width; ++i)
            bytes[static_cast<std::size_t>(at + i)] =
                static_cast<u8>(v >> (8 * i));
        return bytes;
    };
    dies(patched(serverAt, 6, 1), "state byte 6 is not a server state");
    // The ring record leads the coordinator's: the server count, one
    // membership byte per server, then the epoch (which starts at 1).
    const std::ptrdiff_t epochAt =
        coordAt + 8 + static_cast<std::ptrdiff_t>(cfg.servers);
    ASSERT_EQ(u64At(coordAt), cfg.servers);
    ASSERT_GE(u64At(epochAt), 1u);
    dies(patched(epochAt, 0, 8), "ring epoch 0");
    dies(patched(firstTarget, cfg.servers, 4),
         "override target 4 is not one of the 4 servers");
    dies(patched(firstKey, cfg.keySpace, 8),
         "keyLoad key 96 outside the key space");
    dies(patched(secondKey, u64At(firstKey), 8),
         "keyLoad key [0-9]+ is duplicated or out of order");
    // A live coordinator drops a key whose count halves to zero, so a
    // saved zero count is corrupt.
    dies(patched(firstKey + 8, 0, 8),
         "keyLoad key [0-9]+ holds the empty entry");

    // The server's fingerprint carries its KV table between the state
    // byte and stats and the device fingerprint (u64): a count, then
    // (key, version, value) per stored key in key order. Swapping the
    // first two entries puts their keys out of order.
    const std::vector<u8> kv0(
        print0.bytes().begin() + 1 +
            static_cast<std::ptrdiff_t>(wireBytes<ServerStats>()),
        print0.bytes().end() - 8);
    const std::ptrdiff_t kvAt = offsetOf(kv0);
    ASSERT_LT(kvAt, static_cast<std::ptrdiff_t>(saved.size()));
    ASSERT_GE(u64At(kvAt), 2u);
    std::vector<u8> kvSwapped = saved;
    std::swap_ranges(kvSwapped.begin() + kvAt + 8,
                     kvSwapped.begin() + kvAt + 8 + 24,
                     kvSwapped.begin() + kvAt + 8 + 24);
    dies(kvSwapped, "corrupt checkpoint: kv key [0-9]+ is duplicated or "
                    "out of order");
    // Version 0 means absent: a stored value with it is corrupt.
    ASSERT_NE(u64At(kvAt + 8 + 16), 0u);
    dies(patched(kvAt + 8 + 8, 0, 8), "kv key [0-9]+ has version 0");

    // The client record follows the guard, three cursors and the loop
    // counters: its counters, the acked count, the latency histogram,
    // then the per-key versions (u64) and acked writes (two u64s);
    // then the live op count and (id, op record) pairs. An op record
    // is kind (1), key, version, value, issuedAt, deadline (8 each),
    // attempts (4), lastSentAt, retryAt (8 each), hedged (1),
    // mainServer, hedgeServer (4 each), ackMask (8), acks (4).
    const std::size_t counters = wireBytes<FleetCounters>();
    const std::ptrdiff_t opsAt = static_cast<std::ptrdiff_t>(
        8 + 3 * 8 + 2 * counters + 8 + (cfg.retry.opDeadline + 2) * 8 +
        cfg.keySpace * (8 + 16));
    constexpr std::ptrdiff_t kOpRecord = 1 + 5 * 8 + 4 + 2 * 8 + 1 +
                                         2 * 4 + 8 + 4;
    const u64 nops = u64At(opsAt);
    ASSERT_GE(nops, 1u);
    ASSERT_LT(opsAt + 8 + static_cast<std::ptrdiff_t>(nops) *
                              (8 + kOpRecord),
              coordAt + 1);
    std::ptrdiff_t write = -1;
    for (u64 i = 0; i < nops && write < 0; ++i) {
        const std::ptrdiff_t rec =
            opsAt + 8 + static_cast<std::ptrdiff_t>(i) * (8 + kOpRecord) + 8;
        ASSERT_LE(saved[static_cast<std::size_t>(rec)], 1u);
        ASSERT_EQ(u64At(rec + 33), u64At(rec + 25) + cfg.retry.opDeadline);
        if (saved[static_cast<std::size_t>(rec)] == 1)
            write = rec;
    }
    ASSERT_GE(write, 0) << "no write in flight at the cut";
    // The ops are saved in slot order; swapping the first two breaks
    // it.
    ASSERT_GE(nops, 2u);
    std::vector<u8> opsSwapped = saved;
    std::swap_ranges(opsSwapped.begin() + opsAt + 8,
                     opsSwapped.begin() + opsAt + 8 + 8 + kOpRecord,
                     opsSwapped.begin() + opsAt + 8 + 8 + kOpRecord);
    dies(opsSwapped, "op [0-9]+ in slot [0-9]+ does not follow slot");
    dies(patched(write + 17, u64At(write + 17) ^ 1, 8),
         "op [0-9]+ value [0-9]+ disagrees with the derived");
    dies(patched(write + 33, u64At(write + 33) + 1, 8),
         "op [0-9]+ deadline [0-9]+ disagrees with the derived");
    dies(patched(write + 78, u64At(write + 78) + 1, 4),
         "op [0-9]+ acks [0-9]+ disagrees with the derived");
    std::vector<u8> trailing = saved;
    trailing.push_back(0);
    dies(trailing, "1 trailing bytes");
}

TEST_F(ElasticCheckpointDeath, UnknownResponseStatusIsFatal)
{
    // The in-flight responses close the campaign checkpoint: a count,
    // then fixed-size records whose status byte follows (op, attempt,
    // replica). A status one past the last must be refused, not handed
    // to the client as a verdict it cannot classify.
    const FleetConfig cfg = checkpointConfig();
    FleetCampaign first(cfg);
    first.advanceTo(160);
    ByteSink sink;
    first.saveState(sink);
    std::vector<u8> bytes = sink.bytes();

    constexpr std::ptrdiff_t kRecord = 8 + 4 + 4 + 1 + 8 + 8 + 4;
    const auto size = static_cast<std::ptrdiff_t>(bytes.size());
    const auto u64At = [&](std::ptrdiff_t at) {
        u64 v = 0;
        for (int i = 0; i < 8; ++i)
            v |= u64{bytes[static_cast<std::size_t>(at + i)]} << (8 * i);
        return v;
    };
    std::ptrdiff_t n = 1;
    while (size - 8 - kRecord * n >= 0 &&
           u64At(size - 8 - kRecord * n) != static_cast<u64>(n))
        ++n;
    ASSERT_GE(size - 8 - kRecord * n, 0) << "no in-flight response";
    const auto status = static_cast<std::size_t>(size - kRecord + 16);
    ASSERT_LE(bytes[status], static_cast<u8>(Status::Busy));
    bytes[status] = static_cast<u8>(Status::Busy) + 1;

    FleetCampaign second(cfg);
    ByteSource src(bytes);
    EXPECT_DEATH(second.loadState(src), "unknown response status 4");
}

// Converts to any field type, so `T{AnyField{}...}` compiles exactly
// when the brace list is no longer than T's field list.
struct AnyField
{
    template <class T> operator T() const;
};

template <class T, std::size_t... I>
constexpr bool
bracesFit(std::index_sequence<I...>)
{
    return requires { T{(void(I), AnyField{})...}; };
}

template <class T, std::size_t N>
constexpr bool kHasFields = bracesFit<T>(std::make_index_sequence<N>{}) &&
                            !bracesFit<T>(std::make_index_sequence<N + 1>{});

// Tripwire: the checkpoint guard's config digest (digestConfig in
// fleet_sim.cc) lists these structs' fields by hand. A new field must
// be folded into the digest (or left out on purpose, like threads)
// before these counts are bumped.
TEST(ElasticCheckpoint, ConfigDigestTripwireFieldCounts)
{
    static_assert(kHasFields<FleetConfig, 15>,
                  "FleetConfig changed: update digestConfig");
    static_assert(kHasFields<RetryPolicy, 5>,
                  "RetryPolicy changed: update digestConfig");
    static_assert(kHasFields<CoordinatorOptions, 3>,
                  "CoordinatorOptions changed: update digestConfig");
    static_assert(kHasFields<ChaosOptions, 4>,
                  "ChaosOptions changed: update digestConfig");
    static_assert(kHasFields<ServerConfig, 7>,
                  "ServerConfig changed: update digestConfig");
}

} // namespace
