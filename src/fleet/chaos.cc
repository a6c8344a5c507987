#include "fleet/chaos.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"

namespace citadel {
namespace fleet {

namespace {

constexpr u32 kStalls = 2;         ///< Stall windows per campaign.
constexpr u32 kSlowdowns = 2;      ///< Slowdown windows per campaign.
constexpr u64 kStallTicks = 96;    ///< Stall window length.
constexpr u64 kSlowTicks = 384;    ///< Slowdown window length.
constexpr u32 kSlowFactor = 4;     ///< Service-rate divisor while slow.
constexpr double kDupProb = 0.005; ///< Per-request duplication odds.

/** Coin flip from a counter hash: deterministic, order-independent. */
bool
coin(u64 h, double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    // Compare against the top 53 bits for a clean double mapping.
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < p;
}

} // namespace

void
ChaosOptions::validate() const
{
    if (!(0.0 <= dropProb && dropProb <= 1.0))
        fatal("ChaosOptions: dropProb must be in [0, 1]");
}

FleetFaultInjector::FleetFaultInjector(const ChaosOptions &opts,
                                       u32 servers, u64 campaign_ticks,
                                       u64 seed)
    : opts_(opts), seed_(seed ^ 0xC0A05EEDull)
{
    opts_.validate();
    if (!opts_.enabled || servers == 0 || campaign_ticks == 0)
        return;

    Rng rng(seed_);
    const u64 lo = campaign_ticks / 10;
    const u64 hi = campaign_ticks - campaign_ticks / 10;
    const auto sample_tick = [&] {
        return hi > lo ? rng.inRange(lo, hi) : lo;
    };

    // Crashes hit distinct servers: a schedule that takes out both
    // replicas of a key tests nothing about single-failure
    // durability. (Scripted events may still do so deliberately.)
    std::vector<ServerIdx> pool(servers);
    for (u32 s = 0; s < servers; ++s)
        pool[s] = s;
    const u32 crashes = std::min(opts_.crashes, servers);
    for (u32 i = 0; i < crashes; ++i) {
        const u64 pick = rng.below(pool.size());
        ChaosEvent ev;
        ev.tick = sample_tick();
        ev.kind = ChaosEvent::Kind::Crash;
        ev.server = pool[pick];
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        events_.push_back(ev);
        // Derived, not drawn: pairing each crash with its restart
        // keeps every other sampled event exactly where a
        // restartAfterTicks=0 schedule would put it.
        if (opts_.restartAfterTicks > 0) {
            ChaosEvent re = ev;
            re.kind = ChaosEvent::Kind::Restart;
            re.tick = ev.tick + opts_.restartAfterTicks;
            events_.push_back(re);
        }
    }
    for (u32 i = 0; i < kStalls; ++i) {
        ChaosEvent ev;
        ev.tick = sample_tick();
        ev.kind = ChaosEvent::Kind::Stall;
        ev.server = static_cast<ServerIdx>(rng.below(servers));
        ev.duration = kStallTicks;
        events_.push_back(ev);
        // A stall long enough to miss probes gets the server evicted;
        // the process is alive, so once the window ends it asks to
        // rejoin. Derived like crash restarts; a Restart landing on a
        // server that was never evicted is ignored.
        if (opts_.restartAfterTicks > 0) {
            ChaosEvent re = ev;
            re.kind = ChaosEvent::Kind::Restart;
            re.tick = ev.tick + ev.duration + opts_.restartAfterTicks;
            re.duration = 0;
            events_.push_back(re);
        }
    }
    for (u32 i = 0; i < kSlowdowns; ++i) {
        ChaosEvent ev;
        ev.tick = sample_tick();
        ev.kind = ChaosEvent::Kind::Slow;
        ev.server = static_cast<ServerIdx>(rng.below(servers));
        ev.duration = kSlowTicks;
        ev.factor = kSlowFactor;
        events_.push_back(ev);
    }
    sortEvents();
}

void
FleetFaultInjector::addEvent(const ChaosEvent &ev)
{
    events_.push_back(ev);
    sortEvents();
}

void
FleetFaultInjector::sortEvents()
{
    std::sort(events_.begin(), events_.end(),
              [](const ChaosEvent &a, const ChaosEvent &b) {
                  if (a.tick != b.tick)
                      return a.tick < b.tick;
                  if (a.server != b.server)
                      return a.server < b.server;
                  return static_cast<u8>(a.kind) <
                         static_cast<u8>(b.kind);
              });
}

bool
FleetFaultInjector::dropRequest(u64 op, u32 attempt,
                                ServerIdx server) const
{
    if (!opts_.enabled)
        return false;
    const u64 h = mix64(seed_ ^ (op * 0x9E3779B97F4A7C15ull) ^
                        (static_cast<u64>(attempt) << 36) ^ server);
    return coin(h, opts_.dropProb);
}

bool
FleetFaultInjector::duplicateRequest(u64 op, u32 attempt,
                                     ServerIdx server) const
{
    if (!opts_.enabled)
        return false;
    const u64 h = mix64(seed_ ^ 0xD0D0ull ^
                        (op * 0xBF58476D1CE4E5B9ull) ^
                        (static_cast<u64>(attempt) << 36) ^ server);
    return coin(h, kDupProb);
}

} // namespace fleet
} // namespace citadel
