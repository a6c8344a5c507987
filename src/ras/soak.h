/**
 * @file
 * Lifetime soak campaigns: multi-year simulated aging of the live RAS
 * datapath, with deterministic checkpoint/resume.
 *
 * A campaign runs `shards` independent device lifetimes. Each shard
 * owns a full LiveRasDatapath (bit-true engines + control-plane
 * protection + degradation ladder), samples its fault history --
 * data-plane *and* control-plane -- from a counter-derived seed
 * (`seed ^ kSoakSeedMix * (shard + 1)`), compresses simulated hours to
 * cycles (`cyclesPerHour`), and ages event-driven: the stepper only
 * stops at fault arrivals, scrub boundaries, and periodic probe reads
 * that exercise the demand-correction path.
 *
 * Determinism contract (what the tests prove):
 *  - shard work depends only on (config, shard index), never on the
 *    worker that executes it, and results merge in shard order, so the
 *    campaign fingerprint is bit-identical across thread counts;
 *  - save()/load() round-trips the complete logical state of every
 *    shard (LiveRasDatapath::saveState + position), and the stepper's
 *    only loop state is the shard's cycle position, so a checkpointed
 *    + resumed campaign is bit-identical to an uninterrupted one.
 *
 * Each shard's bit-true model costs real memory; campaigns are meant
 * for reduced geometries (StackGeometry::tiny()).
 */

#ifndef CITADEL_RAS_SOAK_H
#define CITADEL_RAS_SOAK_H

#include <memory>
#include <vector>

#include "faults/injector.h"
#include "ras/live_datapath.h"

namespace citadel {

/** Campaign configuration. */
struct SoakConfig
{
    /** Geometry and timing of each shard's datapath. */
    SimConfig sim;

    /** Datapath options; scrubCycles == 0 is derived from
     *  faults.scrubHours * cyclesPerHour at campaign start. */
    LiveRasOptions ras;

    /** Fault-sampling configuration (FIT rates, metaFit, fractions).
     *  geom and lifetimeHours are overwritten from sim/years. */
    SystemConfig faults;

    double years = 5.0;   ///< Simulated lifetime per shard.
    u32 shards = 4;       ///< Independent device lifetimes.
    u64 seed = 1;         ///< Campaign master seed.

    /** Aging compression: simulated-hour to memory-cycle scale. */
    u64 cyclesPerHour = 2048;

    /** Probe reads per scrub epoch (deterministic pseudo-random
     *  addresses; they drive the demand-correction/DUE path). */
    u32 probesPerEpoch = 16;

    /** Worker threads; 0 resolves via citadelThreads(). */
    unsigned threads = 0;

    void validate() const;
};

/** Aggregated campaign outcome. */
struct SoakResult
{
    u32 shards = 0;
    double years = 0.0;
    double hoursSimulated = 0.0;

    RasCounters totals;          ///< Summed in shard order.
    u64 retiredLines = 0;        ///< Capacity given up, summed.
    double minCapacityFraction = 1.0; ///< Worst shard.

    /** Order-sensitive FNV-1a over per-shard state fingerprints: the
     *  bit-identity probe of the determinism tests. */
    u64 fingerprint = 0;

    std::string summary() const;
};

/** A running (or resumable) soak campaign. */
class SoakCampaign
{
  public:
    explicit SoakCampaign(const SoakConfig &cfg);

    SoakCampaign(const SoakCampaign &) = delete;
    SoakCampaign &operator=(const SoakCampaign &) = delete;
    ~SoakCampaign();

    /** Age every shard to `hours` (clamped to the lifetime); returns
     *  immediately when already there. Parallel over shards. */
    void advanceTo(double hours);

    /** Age every shard to end of life. */
    void runToEnd() { advanceTo(lifetimeHours_); }

    double hoursDone() const { return hoursDone_; }
    double lifetimeHours() const { return lifetimeHours_; }
    bool done() const { return hoursDone_ >= lifetimeHours_; }

    /** Aggregate the current state (valid at any point, not just at
     *  end of life). */
    SoakResult result() const;

    /** One shard's datapath (tests poke at it). */
    const LiveRasDatapath &shard(u32 index) const;

    /**
     * Checkpoint / restore the whole campaign. load() must be called
     * on a campaign constructed from the identical SoakConfig; shape
     * mismatches are fatal.
     */
    void save(ByteSink &sink) const;
    void load(ByteSource &src);

  private:
    struct Shard
    {
        std::unique_ptr<LiveRasDatapath> dp;
        u64 cycle = 0; ///< Stepper position (the only loop state).

        friend void fields(auto &io, Of<Shard> auto &sh)
        {
            io(sh.cycle, sh.dp);
        }
    };

    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self);

    SoakConfig cfg_;
    double lifetimeHours_;
    double hoursDone_ = 0.0;
    u64 probeEvery_; ///< Cycles between probe reads.
    std::vector<Shard> shards_;

    u64 cycleOf(double hours) const;
    LineAddr probeLine(u32 shard, u64 probe_index) const;
    void stepShard(u32 index, u64 end_cycle);
};

} // namespace citadel

#endif // CITADEL_RAS_SOAK_H
