/**
 * @file
 * Fleet service tests: consistent-hash placement, the chaos e2e
 * acceptance (kill any single stack server mid-campaign — no
 * acknowledged write may be lost, the differential no-overclaim
 * invariant must hold, and the service must finish at reduced
 * capacity), capacity-driven migration, a negative control proving
 * the durability audit actually detects loss, and thread-count
 * invariance of the campaign fingerprint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fleet/fleet_sim.h"
#include "fleet/hash_ring.h"
#include "fleet/traffic.h"
#include "threadsafe_death.h"

using namespace citadel;
using namespace citadel::fleet;

namespace {

// ---- HashRing ------------------------------------------------------

TEST(HashRing, PlacementIsDeterministicAndDistinct)
{
    HashRing a(8, 64, 42);
    HashRing b(8, 64, 42);
    std::vector<ServerIdx> pa, pb;
    for (u64 key = 0; key < 200; ++key) {
        a.placement(key, 3, pa);
        b.placement(key, 3, pb);
        ASSERT_EQ(pa.size(), 3u);
        EXPECT_EQ(pa, pb);
        EXPECT_NE(pa[0], pa[1]);
        EXPECT_NE(pa[0], pa[2]);
        EXPECT_NE(pa[1], pa[2]);
    }
}

TEST(HashRing, DifferentSeedsGiveDifferentLayouts)
{
    HashRing a(8, 64, 1);
    HashRing b(8, 64, 2);
    u32 same = 0;
    for (u64 key = 0; key < 200; ++key)
        same += a.primary(key) == b.primary(key) ? 1u : 0u;
    EXPECT_LT(same, 200u);
}

TEST(HashRing, RemovalMovesOnlyTheFailedServersKeys)
{
    HashRing before(8, 64, 7);
    HashRing after(8, 64, 7);
    const ServerIdx failed = 3;
    after.remove(failed);
    EXPECT_FALSE(after.contains(failed));
    EXPECT_EQ(after.liveCount(), 7u);

    std::vector<ServerIdx> pb, pa;
    for (u64 key = 0; key < 500; ++key) {
        before.placement(key, 2, pb);
        after.placement(key, 2, pa);
        ASSERT_EQ(pb.size(), 2u);
        ASSERT_EQ(pa.size(), 2u);
        if (pb[0] != failed) {
            // Keys not owned by the failed server keep their primary.
            EXPECT_EQ(pa[0], pb[0]) << "key " << key;
        } else {
            // Failed primaries fail over to their old secondary --
            // exactly the server that already held the replica.
            EXPECT_EQ(pa[0], pb[1]) << "key " << key;
        }
    }
}

TEST(HashRing, PlacementShrinksWhenFewServersRemain)
{
    HashRing ring(4, 32, 9);
    ring.remove(0);
    ring.remove(1);
    ring.remove(2);
    std::vector<ServerIdx> p;
    ring.placement(123, 3, p);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0], 3u);
    ring.remove(3);
    ring.placement(123, 3, p);
    EXPECT_TRUE(p.empty());
}

TEST(HashRing, KeysHashingPastTheLastPointWrapToTheRingMinimum)
{
    // With vnodes=1 the point set is exactly mix64(seed ^ (s << 32)),
    // so the test can locate the ring's extremes independently. Any
    // key hashing clockwise-past the maximum point must wrap around to
    // the minimum point's owner — the lower_bound walk restarting at
    // begin(), not falling off the end.
    const u64 seed = 5;
    const u32 servers = 8;
    u64 maxHash = 0;
    u64 minHash = ~u64{0};
    ServerIdx minOwner = kNoServer;
    for (u32 s = 0; s < servers; ++s) {
        const u64 h = mix64(seed ^ (static_cast<u64>(s) << 32));
        maxHash = std::max(maxHash, h);
        if (h < minHash) {
            minHash = h;
            minOwner = s;
        }
    }
    ASSERT_NE(minOwner, kNoServer);

    HashRing ring(servers, 1, seed);
    u32 wrapped = 0;
    u32 below = 0;
    for (u64 key = 0; key < 20000 && (wrapped < 16 || below < 16);
         ++key) {
        const u64 h = mix64(key ^ seed);
        if (h > maxHash) {
            ++wrapped;
            EXPECT_EQ(ring.primary(key), minOwner) << "key " << key;
        } else if (h <= minHash) {
            // Keys before the first point belong to it directly.
            ++below;
            EXPECT_EQ(ring.primary(key), minOwner) << "key " << key;
        }
    }
    // The max of 8 uniform 64-bit points leaves ~1/9 of the ring past
    // it; 20k keys find such hashes with overwhelming probability.
    EXPECT_GT(wrapped, 0u);
}

TEST(HashRing, SingleServerRingOwnsEverythingUntilRemoved)
{
    HashRing ring(1, 16, 99);
    EXPECT_EQ(ring.liveCount(), 1u);
    std::vector<ServerIdx> p;
    for (u64 key = 0; key < 200; ++key) {
        ring.placement(key, 3, p);
        ASSERT_EQ(p.size(), 1u);
        EXPECT_EQ(p[0], 0u);
    }
    ring.remove(0);
    EXPECT_EQ(ring.liveCount(), 0u);
    ring.placement(7, 1, p);
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(ring.primary(7), kNoServer);
    ring.remove(0); // Idempotent on an already-empty ring.
    EXPECT_EQ(ring.liveCount(), 0u);
}

TEST(HashRing, ReplicationBeyondLiveClampsWithoutDuplicates)
{
    HashRing ring(4, 32, 13);
    std::vector<ServerIdx> p;
    for (u64 key = 0; key < 100; ++key) {
        ring.placement(key, 8, p);
        ASSERT_EQ(p.size(), 4u) << "key " << key;
        std::vector<ServerIdx> sorted = p;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                  sorted.end())
            << "key " << key;
    }
    ring.remove(1);
    ring.remove(3);
    for (u64 key = 0; key < 100; ++key) {
        ring.placement(key, 8, p);
        ASSERT_EQ(p.size(), 2u) << "key " << key;
        EXPECT_NE(p[0], p[1]);
        for (const ServerIdx s : p)
            EXPECT_TRUE(s == 0 || s == 2) << "key " << key;
    }
}

// Elasticity property: remove-then-add of the same server restores
// bit-identical ownership for every key, at the same epoch parity
// (+2), across fleet sizes including the single-server ring and the
// wraparound region past the last ring point.
TEST(HashRing, RemoveThenAddRestoresOwnershipAtSameEpochParity)
{
    for (const u32 servers : {1u, 2u, 3u, 8u, 17u}) {
        HashRing ring(servers, 16, 99);
        HashRing pristine(servers, 16, 99);
        const u32 replicas = std::min(servers, 3u);

        std::vector<u64> keys;
        for (u64 key = 0; key < 400; ++key)
            keys.push_back(key);
        // Force the wraparound edge: keys hashing past the ring
        // maximum wrap to its minimum, and remove+add must round-trip
        // those too. A spread of raw values lands some past the last
        // point whatever the layout.
        for (u64 i = 1; i <= 64; ++i)
            keys.push_back(~0ull - i * 0x1000193ull);

        for (const ServerIdx victim :
             {ServerIdx{0}, ServerIdx{servers - 1}}) {
            const u64 epochBefore = ring.epoch();
            std::vector<std::vector<ServerIdx>> before;
            std::vector<ServerIdx> p;
            for (const u64 key : keys) {
                ring.placement(key, replicas, p);
                before.push_back(p);
            }

            ring.remove(victim);
            EXPECT_FALSE(ring.contains(victim));
            EXPECT_EQ(ring.epoch(), epochBefore + 1);
            ring.add(victim);
            EXPECT_TRUE(ring.contains(victim));
            EXPECT_EQ(ring.epoch(), epochBefore + 2);
            EXPECT_EQ(ring.epoch() % 2, epochBefore % 2);
            EXPECT_EQ(ring.liveCount(), servers);

            std::vector<ServerIdx> q;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                ring.placement(keys[i], replicas, p);
                EXPECT_EQ(p, before[i])
                    << "servers " << servers << " victim " << victim
                    << " key " << keys[i];
                // And the round-tripped ring still matches a pristine
                // ring of the same seed point for point.
                pristine.placement(keys[i], replicas, q);
                EXPECT_EQ(p, q);
            }
        }

        // Idempotence: re-adding a present server is a no-op (no
        // epoch bump, no duplicate points).
        const u64 e = ring.epoch();
        ring.add(0);
        EXPECT_EQ(ring.epoch(), e);
    }
}

// placementPlus must predict exactly what placement() returns once
// the candidate is admitted — the warm scan's shard filter and the
// post-admission ownership must agree, or a warm fill would stream
// the wrong keys.
TEST(HashRing, PlacementPlusPredictsPostAdmissionOwnership)
{
    for (const u32 servers : {2u, 5u, 8u}) {
        HashRing ring(servers, 32, 7);
        const ServerIdx candidate = servers / 2;
        ring.remove(candidate);

        std::vector<ServerIdx> predicted, actual;
        std::vector<std::vector<ServerIdx>> plus;
        for (u64 key = 0; key < 600; ++key) {
            ring.placementPlus(candidate, key, 2, predicted);
            plus.push_back(predicted);
        }
        ring.add(candidate);
        for (u64 key = 0; key < 600; ++key) {
            ring.placement(key, 2, actual);
            EXPECT_EQ(plus[key], actual)
                << "servers " << servers << " key " << key;
        }
        // For a member, placementPlus degenerates to placement().
        for (u64 key = 0; key < 100; ++key) {
            ring.placementPlus(candidate, key, 2, predicted);
            ring.placement(key, 2, actual);
            EXPECT_EQ(predicted, actual);
        }
    }
}

// ---- FleetCounters tripwire ----------------------------------------

// Catches a counter added to the struct but missed in add() or the
// checkpoint field list: fill the struct with distinct non-zero values
// via its flat-u64 layout (the static_asserts in fleet_types.h pin
// it), then demand that the field list writes exactly those values in
// declaration order and that add() doubles every one of them.
TEST(FleetCounters, TripwireEveryFieldSerializedAndMerged)
{
    static_assert(sizeof(FleetCounters) ==
                  kFleetCounterFields * sizeof(u64));

    u64 fill[kFleetCounterFields];
    for (std::size_t i = 0; i < kFleetCounterFields; ++i)
        fill[i] = i + 1;
    FleetCounters c;
    std::memcpy(&c, fill, sizeof(c));

    ByteSink sink;
    Writer{sink}(c);
    ASSERT_EQ(sink.bytes().size(), sizeof(FleetCounters))
        << "the field list writes a different number of fields than "
           "the struct declares";
    ByteSource src(sink.bytes());
    for (std::size_t i = 0; i < kFleetCounterFields; ++i)
        EXPECT_EQ(src.getU64(), i + 1)
            << "field " << i
            << " serialized out of declaration order or skipped";

    // add() must cover the same field set.
    FleetCounters sum = c;
    sum.add(c);
    ByteSink sink2;
    Writer{sink2}(sum);
    ByteSource src2(sink2.bytes());
    for (std::size_t i = 0; i < kFleetCounterFields; ++i)
        EXPECT_EQ(src2.getU64(), 2 * (i + 1))
            << "field " << i << " missed by add()";

    // Loading is the exact inverse.
    FleetCounters back;
    ByteSource src3(sink.bytes());
    Reader{src3}(back);
    EXPECT_EQ(src3.remaining(), 0u);
    ByteSink sink4;
    Writer{sink4}(back);
    EXPECT_EQ(sink4.bytes(), sink.bytes());
}

// ---- Traffic model -------------------------------------------------

TEST(TrafficModel, ParsesPhaseScheduleAndRejectsMalformedSpecs)
{
    TrafficModel m;
    std::string err;
    ASSERT_TRUE(TrafficModel::parse(
        "ticks=100,rate=8,write=0.25,zipf=0.9;"
        "ticks=50,rate=2,burst=4,every=10,len=3",
        m, &err))
        << err;
    ASSERT_EQ(m.phases().size(), 2u);
    EXPECT_EQ(m.totalTicks(), 150u);
    EXPECT_EQ(m.phases()[0].rate, 8u);
    EXPECT_DOUBLE_EQ(m.phases()[0].writeFraction, 0.25);
    EXPECT_DOUBLE_EQ(m.phases()[0].zipfTheta, 0.9);
    EXPECT_EQ(m.phases()[1].burstMult, 4u);
    EXPECT_EQ(m.phases()[1].burstEvery, 10u);
    EXPECT_EQ(m.phases()[1].burstLen, 3u);
    EXPECT_EQ(m.phaseAt(0), 0u);
    EXPECT_EQ(m.phaseAt(99), 0u);
    EXPECT_EQ(m.phaseAt(100), 1u);
    EXPECT_EQ(m.phaseAt(149), 1u);

    const char *bad[] = {
        "",                               // empty spec
        "rate=4",                         // missing required ticks
        "ticks=0",                        // zero-length phase
        "ticks=10,rate=100000",           // rate out of range
        "ticks=10,write=1.5",             // write out of range
        "ticks=10,zipf=9",                // zipf out of range
        "ticks=10,burst=4",               // burst without a window
        "ticks=10,burst=4,every=5,len=9", // len > every
        "ticks=10,bogus=1",               // unknown key
        "ticks=ten",                      // non-numeric
        "ticks=10;;ticks=10",             // empty phase
        "ticks=10,rate",                  // not key=value
    };
    for (const char *spec : bad) {
        TrafficModel t;
        std::string e;
        EXPECT_FALSE(TrafficModel::parse(spec, t, &e)) << spec;
        EXPECT_FALSE(e.empty()) << spec;
    }
}

TEST(TrafficModel, BurstWindowsMultiplyThePhaseRate)
{
    TrafficModel m;
    std::string err;
    ASSERT_TRUE(TrafficModel::parse(
        "ticks=8,rate=2;ticks=40,rate=3,burst=5,every=10,len=2", m,
        &err))
        << err;
    m.prepare(64);
    for (u64 t = 0; t < 8; ++t)
        EXPECT_EQ(m.arrivalsAt(t), 2u) << "tick " << t;
    // Bursts are phase-relative: the window opens at the phase start,
    // not at a global tick multiple.
    for (u64 t = 8; t < 48; ++t) {
        const u64 rel = t - 8;
        const u32 expect = rel % 10 < 2 ? 15u : 3u;
        EXPECT_EQ(m.arrivalsAt(t), expect) << "tick " << t;
    }
}

TEST(TrafficModel, ZipfSkewsKeyPopularityTowardRankZero)
{
    TrafficModel m;
    std::string err;
    ASSERT_TRUE(
        TrafficModel::parse("ticks=10,zipf=1.2;ticks=10", m, &err))
        << err;
    m.prepare(100);
    u32 hotSkewed = 0;
    u32 hotUniform = 0;
    for (u64 i = 0; i < 1000; ++i) {
        const double u = (static_cast<double>(i) + 0.5) / 1000.0;
        hotSkewed += m.keyAt(0, u) == 0 ? 1u : 0u;   // theta = 1.2
        hotUniform += m.keyAt(10, u) == 0 ? 1u : 0u; // theta = 0
    }
    // Uniform gives rank 0 ~1% of the mass; theta=1.2 concentrates a
    // large multiple of that on the hottest key.
    EXPECT_LE(hotUniform, 20u);
    EXPECT_GT(hotSkewed, 5 * hotUniform);
    // Every sample stays inside the key space.
    for (u64 i = 0; i < 1000; ++i) {
        const double u = (static_cast<double>(i) + 0.5) / 1000.0;
        EXPECT_LT(m.keyAt(0, u), 100u);
    }
}

// ---- Campaign fixtures ---------------------------------------------

FleetConfig
smallConfig()
{
    FleetConfig cfg = FleetConfig::demo();
    cfg.servers = 4;
    cfg.ticks = 192;
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

// ---- Chaos e2e: the acceptance criteria ----------------------------

TEST(FleetChaosE2E, KillingAnySingleServerLosesNoAckedWrite)
{
    // Kill each server in turn, mid-campaign, with replication 2 /
    // quorum 2. Every acknowledged write must survive on some
    // in-service replica after failover + re-replication, and every
    // surviving datapath must still agree with its differential model.
    for (u32 victim = 0; victim < 4; ++victim) {
        FleetConfig cfg = smallConfig();
        cfg.chaos.enabled = false; // Scripted kill only.
        FleetCampaign campaign(cfg);

        ChaosEvent kill;
        kill.kind = ChaosEvent::Kind::Crash;
        kill.server = victim;
        kill.tick = 96;
        campaign.injectChaosEvent(kill);

        const FleetResult res = campaign.run();
        SCOPED_TRACE("victim " + std::to_string(victim));
        EXPECT_EQ(res.totals.serverCrashes, 1u);
        EXPECT_EQ(res.lostAckedWrites, 0u);
        EXPECT_EQ(res.corruptAckedWrites, 0u);
        EXPECT_GT(res.auditedWrites, 0u);
        EXPECT_EQ(res.divergences, 0u);

        // Service completed at reduced capacity.
        EXPECT_EQ(res.liveServers, 3u);
        EXPECT_GE(res.totals.failovers, 1u);
        EXPECT_GT(res.totals.repairPushes, 0u);
        EXPECT_GT(res.totals.opsAcked, 0u);
        ASSERT_EQ(res.servers.size(), 4u);
        EXPECT_EQ(res.servers[victim].state, ServerState::Crashed);
        EXPECT_EQ(res.servers[victim].capacityFraction, 0.0);
        for (u32 s = 0; s < 4; ++s) {
            if (s != victim) {
                EXPECT_GT(res.servers[s].capacityFraction, 0.0);
            }
        }
    }
}

TEST(FleetChaosE2E, AuditDetectsLossWithoutReplication)
{
    // Negative control: with replication 1 there is no second copy,
    // so crashing a server MUST surface lost acked writes -- proving
    // the audit is not vacuously green.
    FleetConfig cfg = smallConfig();
    cfg.chaos.enabled = false;
    cfg.replication = 1;
    cfg.ackQuorum = 1;
    FleetCampaign campaign(cfg);

    ChaosEvent kill;
    kill.kind = ChaosEvent::Kind::Crash;
    kill.server = 1;
    kill.tick = 96;
    campaign.injectChaosEvent(kill);

    const FleetResult res = campaign.run();
    EXPECT_GT(res.lostAckedWrites, 0u);
}

TEST(FleetChaosE2E, CapacityCollapseTriggersMigration)
{
    // Fault rates 30x beyond demo()'s already-boosted table exhaust
    // spares and retire lines fast enough that stacks fall through the
    // default capacity floor mid-campaign; the fleet must migrate
    // their shards and still audit clean, because fenced stacks remain
    // repair sources.
    FleetConfig cfg = smallConfig();
    cfg.chaos.enabled = false;
    cfg.retry.maxAttempts = 3; // Keep the doomed-op tail cheap.
    cfg.server.faults.rates = cfg.server.faults.rates.scaledBy(30.0);
    FleetCampaign campaign(cfg);
    const FleetResult res = campaign.run();
    EXPECT_GE(res.totals.capacityMigrations, 1u);
    EXPECT_GE(res.liveServers, 1u);
    EXPECT_EQ(res.lostAckedWrites, 0u);
    EXPECT_EQ(res.corruptAckedWrites, 0u);
    EXPECT_EQ(res.divergences, 0u);
}

// ---- Placement: the memo against its definition --------------------

/** The coordinator's rebalancer tables as ordered maps. */
struct RebalanceTables
{
    std::map<u64, u64> keyLoad;
    std::map<u64, ServerIdx> overrides;
    std::map<u64, u64> cooldown;
};

/** Read the tables back from the coordinator's checkpoint: its record
 *  ends with them, saved as ordered maps, and everything before them
 *  is as long as in a fresh coordinator's record (whose tables are
 *  three zero counts). */
RebalanceTables
tablesOf(const Coordinator &coord, const FleetConfig &cfg)
{
    ByteSink fresh, sink;
    {
        FleetCampaign empty(cfg);
        empty.coordinator().saveState(fresh);
    }
    coord.saveState(sink);
    const std::vector<u8> tail(
        sink.bytes().begin() +
            static_cast<std::ptrdiff_t>(fresh.bytes().size() - 24),
        sink.bytes().end());
    ByteSource src(tail);
    RebalanceTables t;
    Reader{src}(t.keyLoad, t.overrides, t.cooldown);
    EXPECT_EQ(src.remaining(), 0u);
    return t;
}

/** A key's replica set rebuilt without any memo: the ring walk, then
 *  the key's override promoted to primary, truncated to the
 *  replication factor. */
std::vector<ServerIdx>
oraclePlacement(const HashRing &ring, u32 replication,
                const std::map<u64, ServerIdx> &overrides, u64 key)
{
    std::vector<ServerIdx> out;
    ring.placement(key, replication, out);
    const auto it = overrides.find(key);
    if (it == overrides.end())
        return out;
    const auto pos = std::find(out.begin(), out.end(), it->second);
    if (pos != out.end())
        out.erase(pos);
    out.insert(out.begin(), it->second);
    if (out.size() > replication)
        out.resize(replication);
    return out;
}

TEST(CoordinatorPlacement, MatchesTheRingWalkWithOverrides)
{
    // A skewed trace with rebalance on installs overrides; server 1
    // crashes (eviction) and restarts (warm fill, rejoin). Every key's
    // placement must equal the oracle at every checked tick, and again
    // on a campaign restored from a checkpoint while overrides live.
    FleetConfig cfg = smallConfig();
    cfg.ticks = 384;
    cfg.traffic = "ticks=384,rate=6,write=0.5,zipf=1.2";
    cfg.chaos.enabled = false;
    cfg.coord.rebalanceEnabled = true;
    FleetCampaign campaign(cfg);
    ChaosEvent kill;
    kill.kind = ChaosEvent::Kind::Crash;
    kill.server = 1;
    kill.tick = 96;
    campaign.injectChaosEvent(kill);
    ChaosEvent back = kill;
    back.kind = ChaosEvent::Kind::Restart;
    back.tick = 160;
    campaign.injectChaosEvent(back);

    const auto matches = [&](const FleetCampaign &c) {
        const Coordinator &coord = c.coordinator();
        const std::map<u64, ServerIdx> overrides =
            tablesOf(coord, cfg).overrides;
        std::vector<ServerIdx> got;
        for (u64 key = 0; key < cfg.keySpace; ++key) {
            coord.placement(key, got);
            if (got != oraclePlacement(coord.ring(), cfg.replication,
                                       overrides, key)) {
                ADD_FAILURE() << "key " << key;
                return overrides;
            }
        }
        return overrides;
    };

    bool overridden = false, evicted = false, rejoined = false;
    bool restored = false;
    for (u64 t = 4; t <= cfg.ticks; t += 4) {
        campaign.advanceTo(t);
        SCOPED_TRACE("tick " + std::to_string(t));
        bool overrides = false;
        {
            ThreadRoleGrant serial(kSerialPhase);
            overrides = !matches(campaign).empty();
        }
        overridden = overridden || overrides;
        const bool inRing = campaign.coordinator().ring().contains(1);
        evicted = evicted || !inRing;
        rejoined = rejoined || (evicted && inRing);
        if (restored || !rejoined || !overrides)
            continue;
        ByteSink sink;
        campaign.saveState(sink);
        FleetCampaign copy(cfg);
        copy.injectChaosEvent(kill);
        copy.injectChaosEvent(back);
        ByteSource src(sink.bytes());
        copy.loadState(src);
        SCOPED_TRACE("restored");
        ThreadRoleGrant serial(kSerialPhase);
        matches(copy);
        restored = true;
    }
    EXPECT_TRUE(overridden);
    EXPECT_TRUE(evicted);
    EXPECT_TRUE(rejoined);
    EXPECT_TRUE(restored);
}

TEST(CoordinatorPlacement, IdleRoundsKeepExpiredCooldowns)
{
    // Skewed traffic migrates keys, then the fleet goes idle: an idle
    // probe round moves nothing and returns before it drops expired
    // cooldowns, so they stay in the saved table until the next busy
    // round. The checkpoint cut in the idle phase holds such entries,
    // and its FNV-1a is pinned.
    FleetConfig cfg = smallConfig();
    cfg.ticks = 320;
    cfg.traffic = "ticks=192,rate=6,write=0.5,zipf=1.2;ticks=128,rate=0";
    cfg.chaos.enabled = false;
    cfg.coord.rebalanceEnabled = true;
    constexpr u64 kCut = 288;
    FleetCampaign campaign(cfg);
    campaign.advanceTo(kCut);
    ByteSink sink;
    campaign.saveState(sink);
    RebalanceTables t;
    {
        ThreadRoleGrant serial(kSerialPhase);
        t = tablesOf(campaign.coordinator(), cfg);
    }
    EXPECT_TRUE(std::any_of(t.cooldown.begin(), t.cooldown.end(),
                            [&](const auto &c) { return c.second <= kCut; }));
    EXPECT_EQ(fnv1a(sink.bytes()), 0x60e5fe83f68a4c4bull);
}

// ---- Determinism: the tentpole contract ----------------------------

TEST(FleetDeterminism, FingerprintInvariantAcrossThreadCounts)
{
    // Full chaos on (crashes, stalls, slowdowns, drops, dups): the
    // campaign fingerprint -- counters, ring, acked set, per-server KV
    // and device state -- must be bit-identical for 1, 2, and 5
    // worker threads.
    FleetResult ref;
    bool have_ref = false;
    for (const unsigned threads : {1u, 2u, 5u}) {
        FleetConfig cfg = smallConfig();
        cfg.threads = threads;
        cfg.seed = 3;
        FleetCampaign campaign(cfg);
        const FleetResult res = campaign.run();
        if (!have_ref) {
            ref = res;
            have_ref = true;
            // The baseline must be a meaningful campaign.
            EXPECT_GT(res.totals.opsAcked, 0u);
            EXPECT_GT(res.totals.requestsDropped, 0u);
            continue;
        }
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(res.fingerprint, ref.fingerprint);
        EXPECT_EQ(res.totals.opsAcked, ref.totals.opsAcked);
        EXPECT_EQ(res.totals.opsFailed, ref.totals.opsFailed);
        EXPECT_EQ(res.totals.repairPushes, ref.totals.repairPushes);
        EXPECT_EQ(res.totals.requestsServed,
                  ref.totals.requestsServed);
        EXPECT_EQ(res.lostAckedWrites, ref.lostAckedWrites);
    }
}

TEST(FleetDeterminism, SameSeedSameFingerprintTwice)
{
    FleetConfig cfg = smallConfig();
    cfg.seed = 11;
    FleetCampaign a(cfg);
    FleetCampaign b(cfg);
    const FleetResult ra = a.run();
    const FleetResult rb = b.run();
    EXPECT_EQ(ra.fingerprint, rb.fingerprint);
    EXPECT_NE(ra.fingerprint, 0u);
}

TEST(FleetDeterminism, DifferentSeedsDiverge)
{
    FleetConfig cfg = smallConfig();
    cfg.seed = 11;
    FleetCampaign a(cfg);
    cfg.seed = 12;
    FleetCampaign b(cfg);
    EXPECT_NE(a.run().fingerprint, b.run().fingerprint);
}

// Golden fingerprints, recorded on the unframed per-request path the
// wire replaced: every thread-count cell must reproduce them, which
// pins behaviour, not just agreement between cells.
constexpr u64 kGridFingerprint = 0x5808c7fbd9001d2aull;
constexpr u64 kTraceFingerprint = 0x2c03dd517e3690c8ull;
constexpr u64 kOverloadFingerprint = 0x07a840ed63c2b01dull;

/** A grid cell is a worker thread count. */
using GridCell = unsigned;
constexpr GridCell kGridCells[] = {1, 3};

TEST(FleetDeterminism, GridFingerprintIsPinnedAcrossThreads)
{
    // The parallel server step is a pure speed change: at any thread
    // count the campaign is the same down to the fingerprint.
    for (const GridCell threads : kGridCells) {
        FleetConfig cfg = smallConfig();
        cfg.seed = 17;
        cfg.threads = threads;
        FleetCampaign campaign(cfg);
        const FleetResult res = campaign.run();
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(res.fingerprint, kGridFingerprint);
        EXPECT_EQ(res.totals.opsAcked, 576u);
        EXPECT_EQ(res.totals.opsFailed, 0u);
        EXPECT_EQ(res.totals.requestsServed, 883u);
        EXPECT_EQ(res.p50LatencyTicks, 1u);
        EXPECT_EQ(res.p99LatencyTicks, 28u);
    }
}

TEST(FleetDeterminism, TraceReplayIsThreadInvariant)
{
    // A bursty, zipf-skewed trace drives the same offered load in
    // every cell; the trace also overrides the configured tick count
    // with its own total length.
    FleetConfig base = smallConfig();
    base.ticks = 1; // Overridden by the trace (96 + 64 ticks).
    base.traffic = "ticks=96,rate=3,write=0.5,zipf=0.8;"
                   "ticks=64,rate=5,burst=3,every=16,len=4";
    for (const GridCell threads : kGridCells) {
        FleetConfig cfg = base;
        cfg.threads = threads;
        FleetCampaign campaign(cfg);
        EXPECT_EQ(campaign.totalTicks(), 96u + 64u);
        const FleetResult res = campaign.run();
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(res.fingerprint, kTraceFingerprint);
        EXPECT_EQ(res.totals.opsAcked, 768u);
    }
}

TEST(FleetDeterminism, OverloadBusyOrderIsPinned)
{
    // The load driver's overload shape (256 arrivals/tick) against
    // small inboxes: most sends bounce as Busy, so the fingerprint
    // pins the order the client sees those rejections in (global send
    // order), not only their agreement across cells. Servers receive
    // well over 32 requests a tick here, so request frames split at
    // the cap under this pin.
    FleetConfig base = smallConfig();
    base.seed = 23;
    base.ticks = 48;
    base.arrivalsPerTick = 256;
    base.keySpace = 4096;
    base.server.queueCap = 16;
    for (const GridCell threads : kGridCells) {
        FleetConfig cfg = base;
        cfg.threads = threads;
        FleetCampaign campaign(cfg);
        const FleetResult res = campaign.run();
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_GT(res.totals.busyRejections, 0u);
        EXPECT_EQ(res.totals.busyRejections, 91799u);
        EXPECT_EQ(res.totals.opsAcked, 2574u);
        EXPECT_EQ(res.fingerprint, kOverloadFingerprint);
    }
}

TEST(FleetDeterminism, LatencyPercentilesAreSaneAndReported)
{
    FleetConfig cfg = smallConfig();
    FleetCampaign campaign(cfg);
    const FleetResult res = campaign.run();
    ASSERT_GT(res.totals.opsAcked, 0u);
    EXPECT_LE(res.p50LatencyTicks, res.p99LatencyTicks);
    // A response reaches the client one tick after it was sent, so an
    // ack takes at least one tick; no op outlives its deadline (the
    // deadline wakeup completes it).
    EXPECT_GE(res.p50LatencyTicks, 1u);
    EXPECT_LE(res.p99LatencyTicks, cfg.retry.opDeadline + 1);
    EXPECT_NE(res.summary().find("latency"), std::string::npos);
}

// ---- StackServer chaos-state transitions ---------------------------

// Regression test for a leak the thread-safety review surfaced: a
// stall landing on a Slowed server (legal — stall() accepts any
// serving state) used to lift straight to Up, skipping the
// Slowed-expiry reset, so slowDivisor_ stayed > 1 and the server's
// service budget was permanently divided. The stall must restore the
// slowdown while its window is open and the full rate after it ends.
TEST(StackServerChaos, StallOverSlowdownRestoresServiceRate)
{
    const ServerConfig scfg = smallConfig().server; // 24 units/tick.
    StackServer srv(0, scfg, /*key_space=*/96, /*seed=*/1,
                    /*campaign_ticks=*/64);

    u64 next_op = 1;
    const auto fill_to = [&](u64 target) {
        ThreadRoleGrant serial(kSerialPhase);
        for (u64 i = 0; i < target; ++i) {
            Request r;
            r.op = next_op++;
            r.kind = OpKind::Read;
            r.key = i;
            srv.enqueue(r);
        }
    };

    {
        ThreadRoleGrant serial(kSerialPhase);
        srv.slowdown(/*until_tick=*/8, /*divisor=*/4);
        srv.stall(/*until_tick=*/5);
        EXPECT_EQ(srv.state(), ServerState::Stalled);
    }
    fill_to(32);

    // Frozen: no service while the stall window is open.
    srv.step(1);
    {
        ThreadRoleGrant serial(kSerialPhase);
        EXPECT_TRUE(srv.outbox().empty());
    }
    EXPECT_EQ(srv.state(), ServerState::Stalled);

    // Stall lifts inside the slowdown window: the slowdown must come
    // back (budget 24 / 4 = 6), not full speed and not a leak.
    srv.step(5);
    EXPECT_EQ(srv.state(), ServerState::Slowed);
    {
        ThreadRoleGrant serial(kSerialPhase);
        EXPECT_FALSE(srv.outbox().empty());
        EXPECT_LE(srv.outbox().size(), 6u);
    }

    // Slowdown expires: the full service budget must return. With the
    // leak, slowDivisor_ stayed 4 and this tick served at most 6.
    fill_to(32);
    srv.step(8);
    EXPECT_EQ(srv.state(), ServerState::Up);
    {
        ThreadRoleGrant serial(kSerialPhase);
        EXPECT_GT(srv.outbox().size(), 6u);
    }
}

// The KV store and the placement memo are sized to the campaign's key
// space; a key outside it is a caller bug, fatal on every path. The
// last death test forks while a campaign is alive.
using KeySpaceDeath = testing_helpers::ThreadsafeDeathTest;

TEST_F(KeySpaceDeath, OutOfRangeKeysAreFatal)
{
    FleetConfig cfg = smallConfig();
    cfg.threads = 1;
    StackServer srv(0, cfg.server, /*key_space=*/96, /*seed=*/1,
                    /*campaign_ticks=*/64);
    ThreadRoleGrant serial(kSerialPhase);
    EXPECT_DEATH(srv.lookup(96), "outside the declared key space");
    EXPECT_DEATH(srv.applyReplica(96, 1, 1),
                 "outside the declared key space");

    FleetCampaign campaign(cfg);
    std::vector<ServerIdx> out;
    EXPECT_DEATH(campaign.coordinator().placement(cfg.keySpace, out),
                 "outside the declared key space");
}

// A NaN slips past `x < lo || x > hi` and `!(x > 0)` lets +inf
// through; validate() must reject both in every double setting.
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ConfigDeath, FleetConfigRejectsNonFiniteWriteFraction)
{
    FleetConfig cfg = smallConfig();
    cfg.writeFraction = kNaN;
    EXPECT_DEATH(cfg.validate(), "writeFraction");
}

TEST(ConfigDeath, FleetCampaignRejectsMalformedTrafficSpec)
{
    // The campaign parses the trace spec once, at construction; a bad
    // one must die there with the parser's diagnostic.
    FleetConfig cfg = smallConfig();
    cfg.threads = 1;
    cfg.traffic = "ticks=10,bogus=1";
    EXPECT_DEATH({ FleetCampaign campaign(cfg); },
                 "traffic spec: .*bogus");
}

TEST(ConfigDeath, ChaosOptionsRejectsNonFiniteDropProb)
{
    ChaosOptions opts;
    opts.dropProb = kNaN;
    EXPECT_DEATH(opts.validate(), "dropProb");
}

TEST(ConfigDeath, ServerConfigRejectsInfiniteAgingHours)
{
    ServerConfig cfg;
    cfg.agingHours = kInf;
    EXPECT_DEATH(cfg.validate(), "agingHours");
}

} // namespace
