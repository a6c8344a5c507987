/**
 * @file
 * FleetFaultInjector: the fault model one layer above the device.
 *
 * Citadel's FaultInjector samples bit/word/column/row/bank/TSV faults
 * inside a stack; this injector samples what kills memory-pool
 * deployments around the stacks: fail-stop server crashes, stalls
 * (alive but frozen), slowdowns, and request drop/duplication on the
 * fleet "network".
 *
 * Determinism contract, extending DESIGN.md §9/§11 to the fleet:
 *  - the event schedule (crash/stall/slow) is sampled once at
 *    construction from the campaign seed — it depends on nothing that
 *    happens during the run;
 *  - per-request coin flips (drop, duplicate) are counter hashes of
 *    (seed, operation, attempt, server), not RNG draws, so they are
 *    independent of the order requests are processed in;
 * together every chaos decision is bit-identical for any worker
 * thread count. Tests also script events directly (addEvent) to kill
 * a chosen server at a chosen tick.
 */

#ifndef CITADEL_FLEET_CHAOS_H
#define CITADEL_FLEET_CHAOS_H

#include <vector>

#include "fleet/fleet_types.h"

namespace citadel {
namespace fleet {

/** Chaos intensity knobs. */
struct ChaosOptions
{
    bool enabled = true;

    /** Crashes scheduled over the campaign (the stall and slowdown
     *  counts, window lengths, slowdown divisor and duplication odds
     *  are constants in chaos.cc). */
    u32 crashes = 1;

    /** Per-request loss probability on the fleet network. */
    double dropProb = 0.01;

    /**
     * Elasticity: ticks after a sampled crash (or after a sampled
     * stall window ends — a stall-evicted process is alive and wants
     * back in) at which the server asks the coordinator to rejoin
     * (the CITADEL_FLEET_JOIN knob). 0 (default) keeps evictions
     * permanent — the pre-elasticity behavior; schedules sampled with
     * 0 are bit-identical to before. Restart events are derived from
     * the sampled crashes/stalls, never separately drawn, so enabling
     * them perturbs no other event's placement.
     */
    u64 restartAfterTicks = 0;

    void validate() const;
};

/** One scheduled fleet-level event. */
struct ChaosEvent
{
    enum class Kind : u8
    {
        Crash,   ///< Fail-stop; queue and device state lost.
        Stall,   ///< Frozen for `duration` ticks.
        Slow,    ///< Service rate divided by `factor` for `duration`.
        Restart, ///< Process back up; server asks to rejoin (warm).
    };

    u64 tick = 0;
    Kind kind = Kind::Crash;
    ServerIdx server = 0;
    u64 duration = 0;
    u32 factor = 1;
};

class FleetFaultInjector
{
  public:
    /**
     * Sample the event schedule for `servers` stacks over
     * `campaign_ticks`. Events land in the middle 80% of the run so
     * the service is warm when they hit, and sampled crashes all
     * target distinct servers (concurrent unrelated crashes would
     * make single-failure durability vacuously untestable; scripted
     * events have no such restriction).
     */
    FleetFaultInjector(const ChaosOptions &opts, u32 servers,
                       u64 campaign_ticks, u64 seed);

    /** Script an extra event (tests: kill server s at tick t). */
    void addEvent(const ChaosEvent &ev);

    /** All events, sorted by (tick, server, kind). */
    const std::vector<ChaosEvent> &schedule() const { return events_; }

    /** Counter-hash coin: is this request eaten by the network? */
    bool dropRequest(u64 op, u32 attempt, ServerIdx server) const;

    /** Counter-hash coin: is this request delivered twice? */
    bool duplicateRequest(u64 op, u32 attempt, ServerIdx server) const;

  private:
    ChaosOptions opts_;
    u64 seed_;
    std::vector<ChaosEvent> events_;

    void sortEvents();
};

} // namespace fleet
} // namespace citadel

#endif // CITADEL_FLEET_CHAOS_H
