#include "fleet/coordinator.h"

#include <algorithm>

#include "common/log.h"
#include "ecc/crc32.h"

namespace citadel {
namespace fleet {

namespace {

constexpr double kCapacityFloor = 0.70; ///< Evict below this capacity.
constexpr u32 kRepairPerTick = 128;     ///< Keys re-replicated per tick.
constexpr u32 kVnodes = 64;             ///< Ring points per server.

// Warm-fill (join) pump.
constexpr u32 kWarmPerTick = 128;    ///< Source keys per tick per join.
constexpr u32 kWarmBatch = 64;       ///< Records per warm-fill frame.
constexpr u64 kWarmBackoffTicks = 8; ///< Backoff base after a restart.
constexpr u32 kWarmMaxAttempts = 6;  ///< Scans before a join aborts.
static_assert(kWarmBatch <= kMaxFrameRecords);

// Load-driven rebalance.
constexpr double kLoadAlpha = 0.30;      ///< EWMA smoothing per round.
constexpr u64 kKeyCooldownTicks = 64;    ///< Per-key re-migration cooldown.
constexpr double kOverloadFactor = 1.50; ///< Hot: ewma > factor * mean.
constexpr u32 kHotRounds = 2;       ///< Consecutive hot rounds to move.
constexpr u32 kMigratePerRound = 4; ///< Hot-key moves per round (cap).
constexpr u64 kMinRoundLoad = 16;   ///< Mean EWMA floor: idle never moves.

} // namespace

void
CoordinatorOptions::validate() const
{
    if (healthEvery == 0)
        fatal("CoordinatorOptions: healthEvery must be >= 1");
    if (failThreshold == 0)
        fatal("CoordinatorOptions: failThreshold must be >= 1");
}

Coordinator::Coordinator(const CoordinatorOptions &opts, u32 replication,
                         u64 seed, u64 key_space,
                         std::vector<std::unique_ptr<StackServer>> &fleet)
    : opts_(opts), replication_(replication),
      ring_(static_cast<u32>(fleet.size()), kVnodes, seed),
      fleet_(fleet), missed_(fleet.size(), 0), warm_(fleet.size()),
      roundLoad_(fleet.size(), 0), ewma_(fleet.size(), 0.0),
      hotStreak_(fleet.size(), 0), keyLoad_(key_space, 0),
      overrides_(key_space, kNoServer), cooldown_(key_space, 0),
      cacheStamp_(key_space, 0),
      cache_(key_space)
{
    opts_.validate();
    if (replication_ == 0)
        fatal("Coordinator: replication must be >= 1");
    if (key_space == 0)
        fatal("Coordinator: key space must be >= 1");
}

void
Coordinator::placement(u64 key, std::vector<ServerIdx> &out) const
{
    if (key >= cacheStamp_.size())
        fatal("Coordinator: key %llu outside the declared key space (%zu)",
              static_cast<unsigned long long>(key), cacheStamp_.size());
    std::vector<ServerIdx> &set = cache_[key];
    if (cacheStamp_[key] != ring_.epoch()) {
        ring_.placement(key, replication_, set);
        // A live override promotes the migrated-to server to primary;
        // the tail of the ring walk backs it up, truncated to the
        // replication factor. Overrides to servers that have since
        // left the ring are pruned eagerly (dropOverridesTo), so this
        // target is always live.
        const ServerIdx target = overrides_[key];
        if (target != kNoServer) {
            const auto pos = std::find(set.begin(), set.end(), target);
            if (pos != set.end())
                set.erase(pos);
            set.insert(set.begin(), target);
            if (set.size() > replication_)
                set.resize(replication_);
        }
        cacheStamp_[key] = ring_.epoch();
    }
    out = set;
}

bool
Coordinator::inService(ServerIdx s) const
{
    return ring_.contains(s) && fleet_[s]->serving();
}

bool
Coordinator::warming() const
{
    for (const WarmState &w : warm_)
        if (w.active)
            return true;
    return false;
}

void
Coordinator::noteLoad(ServerIdx server, u64 key)
{
    if (!opts_.rebalanceEnabled)
        return;
    ++roundLoad_[server];
    ++keyLoad_[key];
}

void
Coordinator::dropOverridesTo(ServerIdx s)
{
    // Both callers have just taken s out of the ring, and that epoch
    // bump already restamps every memoized placement.
    std::replace(overrides_.begin(), overrides_.end(), s, kNoServer);
}

void
Coordinator::evict(ServerIdx s, bool capacity, FleetCounters &counters)
{
    if (!ring_.contains(s))
        return;
    // Never evict the last live server: degraded service beats no
    // service, and the audit only requires single-failure durability.
    if (ring_.liveCount() <= 1)
        return;
    ring_.remove(s); // Bumps the epoch: cached placements invalidate.
    fleet_[s]->fence();
    missed_[s] = 0;
    dropOverridesTo(s);
    ++counters.failovers;
    if (capacity)
        ++counters.capacityMigrations;
    // Every key whose replica chain included s needs a new copy.
    rescanNeeded_ = true;
}

void
Coordinator::requestJoin(ServerIdx s, u64 now, FleetCounters &counters)
{
    (void)counters;
    if (s >= fleet_.size() || fleet_[s]->state() != ServerState::Fenced)
        return;
    if (warm_[s].active)
        return;
    if (ring_.contains(s)) {
        // Crashed and restarted before the probe loop could evict it:
        // its membership survived but its data did not. Strip the
        // stale membership first; the join below re-earns it.
        ring_.remove(s);
        dropOverridesTo(s);
        rescanNeeded_ = true;
    }
    fleet_[s]->beginWarming();
    WarmState w;
    w.active = true;
    w.attempts = 1;
    w.resumeAt = now;
    w.epochAtStart = ring_.epoch();
    w.crc = Crc32::begin();
    warm_[s] = w;
}

void
Coordinator::restartOrAbortWarm(ServerIdx s, u64 now,
                                FleetCounters &counters)
{
    WarmState &w = warm_[s];
    ++w.attempts;
    if (w.attempts > kWarmMaxAttempts) {
        fleet_[s]->abortWarming();
        ++counters.warmAborts;
        w = WarmState{};
        return;
    }
    ++counters.warmRestarts;
    // Reset the scan and re-arm the handshake on both sides (the
    // server's beginWarming() is idempotent in Warming and zeroes its
    // CRC); linear backoff bounds ring-churn livelock.
    fleet_[s]->beginWarming();
    w.epochAtStart = ring_.epoch();
    w.srcServer = 0;
    w.haveLast = false;
    w.lastKey = 0;
    w.crc = Crc32::begin();
    w.records = 0;
    w.resumeAt = now + kWarmBackoffTicks * w.attempts;
}

void
Coordinator::pumpWarm(u64 now, FleetCounters &counters)
{
    for (ServerIdx s = 0; s < fleet_.size(); ++s) {
        WarmState &w = warm_[s];
        if (!w.active)
            continue;
        if (fleet_[s]->state() != ServerState::Warming) {
            // Crashed mid-warm: the join dies with the process. A
            // later restart event files a fresh requestJoin.
            w = WarmState{};
            continue;
        }
        if (now < w.resumeAt)
            continue;
        if (ring_.epoch() != w.epochAtStart) {
            // Ring churn invalidated the prospective shard mid-scan.
            restartOrAbortWarm(s, now, counters);
            continue;
        }
        warmWriter_.beginRequestFrame();
        u32 inFrame = 0;
        u32 left = kWarmPerTick;
        bool done = false;
        const auto ship = [&] {
            if (inFrame == 0)
                return;
            fleet_[s]->warmFrame(warmWriter_.finish());
            warmWriter_.beginRequestFrame();
            inFrame = 0;
        };
        while (left > 0) {
            if (w.srcServer >= fleet_.size()) {
                done = true;
                break;
            }
            if (w.srcServer == s || !ring_.contains(w.srcServer) ||
                !fleet_[w.srcServer]->dataReadable()) {
                ++w.srcServer;
                w.haveLast = false;
                continue;
            }
            u64 key = 0, version = 0, value = 0;
            if (!fleet_[w.srcServer]->kvScan(w.haveLast, w.lastKey, key,
                                             version, value)) {
                ++w.srcServer;
                w.haveLast = false;
                continue;
            }
            w.lastKey = key;
            w.haveLast = true;
            --left;
            // Stream only the joining server's prospective shard:
            // keys it would own once added. Keys replicated on
            // several sources stream once per source — idempotent
            // max-merge on the server, and both CRC sides fold the
            // identical sequence.
            ring_.placementPlus(s, key, replication_, scratch_);
            if (std::find(scratch_.begin(), scratch_.end(), s) ==
                scratch_.end())
                continue;
            Request r;
            r.kind = OpKind::Write;
            r.key = key;
            r.version = version;
            r.value = value;
            warmWriter_.add(r);
            w.crc = Crc32::update(w.crc, key);
            w.crc = Crc32::update(w.crc, version);
            w.crc = Crc32::update(w.crc, value);
            ++w.records;
            ++counters.warmFills;
            if (++inFrame >= kWarmBatch)
                ship();
        }
        ship();
        if (done) {
            // The warming handshake: both ends walked the same record
            // stream or the server dies loudly.
            fleet_[s]->admit(w.crc);
            ring_.add(s); // Epoch bump; caches invalidate lazily.
            missed_[s] = 0;
            ++counters.serverJoins;
            w = WarmState{};
            // Writes that landed mid-scan went only to the pre-join
            // replica set; a repair pass pushes the newest versions
            // onto the new owner and closes the staleness window.
            rescanNeeded_ = true;
        }
    }
}

void
Coordinator::rebalance(u64 now, FleetCounters &counters)
{
    // Fold this round's send counts into the per-server EWMA.
    const double a = kLoadAlpha;
    double sum = 0.0;
    u32 inRing = 0;
    for (ServerIdx s = 0; s < fleet_.size(); ++s) {
        ewma_[s] = a * static_cast<double>(roundLoad_[s]) +
                   (1.0 - a) * ewma_[s];
        roundLoad_[s] = 0;
        if (ring_.contains(s)) {
            sum += ewma_[s];
            ++inRing;
        }
    }
    // Halve per-key counts so the hot set tracks the present, not the
    // whole campaign; a cold key's count reaches 0, unloaded.
    for (u64 &count : keyLoad_)
        count >>= 1;
    if (inRing == 0)
        return;
    const double mean = sum / inRing;
    if (mean < static_cast<double>(kMinRoundLoad)) {
        // Idle fleet: imbalance over noise-level traffic is not worth
        // moving data for (the hysteresis floor).
        std::fill(hotStreak_.begin(), hotStreak_.end(), 0);
        return;
    }
    for (ServerIdx s = 0; s < fleet_.size(); ++s) {
        if (!ring_.contains(s) || !fleet_[s]->serving()) {
            hotStreak_[s] = 0;
            continue;
        }
        if (ewma_[s] > kOverloadFactor * mean)
            ++hotStreak_[s];
        else
            hotStreak_[s] = 0;
        if (hotStreak_[s] < kHotRounds)
            continue;
        hotStreak_[s] = 0; // Hysteresis: re-qualify before moving more.
        // Coolest serving target takes the heat.
        ServerIdx target = kNoServer;
        for (ServerIdx t = 0; t < fleet_.size(); ++t) {
            if (t == s || !ring_.contains(t) || !fleet_[t]->serving())
                continue;
            if (target == kNoServer || ewma_[t] < ewma_[target])
                target = t;
        }
        if (target == kNoServer)
            continue;
        // The loaded keys s is primary for and that are not cooling
        // down. A move changes only its own key's override and
        // cooldown, so filtering them all up front picks the same keys
        // as filtering each in hottest-first order.
        hotScratch_.clear();
        for (u64 key = 0; key < keyLoad_.size(); ++key) {
            if (keyLoad_[key] == 0 || now < cooldown_[key])
                continue;
            placement(key, scratch_);
            if (scratch_.empty() || scratch_[0] != s)
                continue;
            hotScratch_.push_back({keyLoad_[key], key});
        }
        // The hottest kMigratePerRound of them (rate cap: rebalance
        // cannot thrash); (count desc, key asc) is a total order.
        const auto picked =
            hotScratch_.begin() +
            static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                kMigratePerRound, hotScratch_.size()));
        std::partial_sort(hotScratch_.begin(), picked, hotScratch_.end(),
                          [](const auto &x, const auto &y) {
                              if (x.first != y.first)
                                  return x.first > y.first;
                              return x.second < y.second;
                          });
        for (auto it = hotScratch_.begin(); it != picked; ++it) {
            const u64 key = it->second;
            placement(key, scratch_);
            // Install the newest replica on the target before the
            // override flips reads toward it.
            u64 bestV = 0, bestVal = 0;
            for (const ServerIdx r : scratch_) {
                if (!fleet_[r]->dataReadable())
                    continue;
                const auto [v, val] = fleet_[r]->lookup(key);
                if (v > bestV) {
                    bestV = v;
                    bestVal = val;
                }
            }
            if (bestV > 0 &&
                fleet_[target]->lookup(key).first < bestV) {
                fleet_[target]->applyReplica(key, bestV, bestVal);
                ++counters.repairPushes;
            }
            overrides_[key] = target;
            cacheStamp_[key] = 0; // Re-walk with the override applied.
            cooldown_[key] = now + kKeyCooldownTicks;
            ++counters.loadMigrations;
        }
    }
    // Expired cooldowns are dead weight; drop them (only here, so the
    // saved table keeps what an early return above left in it).
    for (u64 &until : cooldown_)
        if (now >= until)
            until = 0;
}

void
Coordinator::tick(u64 now, FleetCounters &counters)
{
    if (now > 0 && now % opts_.healthEvery == 0) {
        for (ServerIdx s = 0; s < fleet_.size(); ++s) {
            if (!ring_.contains(s))
                continue;
            ++counters.healthProbes;
            if (!fleet_[s]->respondsToProbe(now)) {
                ++counters.probesMissed;
                if (++missed_[s] >= opts_.failThreshold)
                    evict(s, false, counters);
                continue;
            }
            missed_[s] = 0;
            // The stack answers, but its degradation ladder may have
            // retired enough capacity that it should stop taking new
            // placement: migrate its shards while it can still serve
            // as a repair source.
            if (!ring_.contains(s))
                continue;
            const RasHealthSignals h = fleet_[s]->health();
            if (!h.healthyAbove(kCapacityFloor))
                evict(s, true, counters);
        }
        if (opts_.rebalanceEnabled)
            rebalance(now, counters);
    }
    pumpWarm(now, counters);
    pumpRepair(kRepairPerTick, counters);
}

void
Coordinator::pumpRepair(u32 budget, FleetCounters &counters)
{
    if (rescanNeeded_) {
        // (Re)start the scan from the top; a topology change mid-scan
        // invalidates placements already visited.
        scanning_ = true;
        scanServer_ = 0;
        haveLastKey_ = false;
        rescanNeeded_ = false;
    }
    if (!scanning_)
        return;

    u32 left = budget;
    while (left > 0) {
        if (scanServer_ >= fleet_.size()) {
            scanning_ = false;
            return;
        }
        StackServer &src = *fleet_[scanServer_];
        if (!src.dataReadable()) {
            ++scanServer_;
            haveLastKey_ = false;
            continue;
        }
        // kvScan is the layout-agnostic ascending-key cursor (ordered
        // map or dense array on the server side); the resume-from-
        // lastKey_ semantics are exactly the old upper_bound walk.
        u64 key = 0, version = 0, value = 0;
        if (!src.kvScan(haveLastKey_, lastKey_, key, version, value)) {
            ++scanServer_;
            haveLastKey_ = false;
            continue;
        }
        while (left > 0) {
            lastKey_ = key;
            haveLastKey_ = true;
            --left;
            placement(key, scratch_);
            for (const ServerIdx t : scratch_) {
                if (t == scanServer_ || !fleet_[t]->serving())
                    continue;
                if (fleet_[t]->lookup(key).first < version) {
                    fleet_[t]->applyReplica(key, version, value);
                    ++counters.repairPushes;
                }
            }
            if (!src.kvScan(true, key, key, version, value)) {
                ++scanServer_;
                haveLastKey_ = false;
                break;
            }
        }
    }
}

void
Coordinator::drainRepairs(FleetCounters &counters)
{
    // Bounded: each full scan visits every readable server's map once,
    // and draining runs at most one restart per preceding topology
    // change (evictions cannot happen here).
    while (repairing())
        pumpRepair(0xFFFFFFFFu, counters);
}

void
Coordinator::drainElastic(u64 now, FleetCounters &counters)
{
    // Advance a virtual clock so warm backoff windows elapse. Bounded:
    // every warm scan either finishes (finite sources x keys per
    // attempt, <= kWarmMaxAttempts attempts, and the only mid-drain
    // epoch changes are admissions — at most one per server) or
    // aborts; then it is drainRepairs().
    u64 t = now;
    u64 guard = 0;
    while (warming() || repairing()) {
        pumpWarm(t, counters);
        pumpRepair(0xFFFFFFFFu, counters);
        ++t;
        if (++guard > 100000000ull)
            fatal("Coordinator::drainElastic: no forward progress");
    }
}

void
Coordinator::fields(auto &io, auto &self)
{
    io(self.ring_);
    io.fixed(self.missed_);
    io(self.rescanNeeded_, self.scanning_, self.scanServer_,
       self.haveLastKey_, self.lastKey_);
    io.fixed(self.warm_, self.roundLoad_, self.ewma_, self.hotStreak_);
    io.keyTable(self.keyLoad_, u64{0},
                "Coordinator::loadState: corrupt checkpoint: keyLoad");
    io.keyTable(self.overrides_, kNoServer,
                "Coordinator::loadState: corrupt checkpoint: overrides");
    io.keyTable(self.cooldown_, u64{0},
                "Coordinator::loadState: corrupt checkpoint: cooldown");
}

void
Coordinator::saveState(ByteSink &sink) const
{
    Writer out(sink);
    fields(out, *this);
}

void
Coordinator::loadState(ByteSource &src)
{
    Reader in(src);
    fields(in, *this);
    for (const ServerIdx target : overrides_)
        if (target != kNoServer && target >= fleet_.size())
            fatal("Coordinator::loadState: corrupt checkpoint: override "
                  "target %u is not one of the %zu servers",
                  target, fleet_.size());
    // The placement cache is a memo, not state: stamp 0 never matches
    // a real epoch (epochs start at 1), so every entry re-walks the
    // restored ring, with the restored overrides, lazily and
    // identically.
    std::fill(cacheStamp_.begin(), cacheStamp_.end(), 0);
}

} // namespace fleet
} // namespace citadel
