/**
 * @file
 * Samples the fault history of one device lifetime: Poisson arrivals per
 * die and fault class at the Table I rates, plus TSV faults at the swept
 * device rate, each materialized as a FaultRange at a random location.
 */

#ifndef CITADEL_FAULTS_INJECTOR_H
#define CITADEL_FAULTS_INJECTOR_H

#include <array>
#include <span>
#include <vector>

#include "common/rng.h"
#include "faults/fault.h"
#include "faults/fit_rates.h"
#include "faults/meta_fault.h"
#include "stack/tsv.h"

namespace citadel {

/**
 * Sizes of the control-plane structures a MetaFault can land in, as
 * configured by whoever owns those structures (the RAS datapath). The
 * injector only needs the slot counts to draw uniform targets; the
 * defaults match the paper's DDS provisioning (4 spare rows per bank,
 * 2 spare banks per stack) and an 8-way parity cache.
 */
struct MetaGeometry
{
    u32 rrtSlotsPerUnit = 4;  ///< RRT entries per (die, bank) unit.
    u32 brtSlots = 2;         ///< BRT entries per stack.
    u32 parityCacheWays = 8;  ///< Cached D1 parity lines per stack.
};

/**
 * Full reliability-experiment configuration: geometry, per-die FIT
 * rates, TSV device rate, lifetime and scrub interval.
 */
struct SystemConfig
{
    StackGeometry geom;
    FitTable rates = FitTable::paper8Gb();

    /**
     * TSV-caused device failures per 10^9 hours, per stack. The paper
     * sweeps 14 FIT (0.01 failures in 7 years) to 1430 FIT (1 failure
     * in 7 years). 0 disables TSV faults.
     */
    double tsvDeviceFit = 0.0;

    double lifetimeHours = kLifetimeHours;
    double scrubHours = kScrubIntervalHours;

    /**
     * Fraction of bank-class faults that are partial-bank (sub-array)
     * failures rather than full-bank failures. Fig 17 of the paper shows
     * roughly 30% of large-granularity failures clustering at sub-array
     * size.
     */
    double subArrayFraction = 0.3;

    /** Rows per sub-array (power of two; the paper observes ~5.2K). */
    u32 subArrayRows = 4096;

    /**
     * Control-plane (RAS metadata SRAM) upsets per 10^9 hours, per
     * stack, across all protected structures. 0 disables control-plane
     * faults, which preserves the pre-existing perfect-metadata model.
     */
    double metaFit = 0.0;

    /** Dies per stack including the ECC/metadata die. */
    u32 diesPerStack() const { return geom.channelsPerStack + 1; }

    /** Channel index used for the ECC/metadata die. */
    u32 eccChannel() const { return geom.channelsPerStack; }

    /**
     * Check the whole experiment configuration for nonsense (zero
     * geometry dimensions, negative or non-finite rates, impossible
     * scrub/lifetime setup). Calls fatal() with a clear message on the
     * first problem, instead of letting it surface as undefined
     * behavior downstream.
     */
    void validate() const;
};

/**
 * Fault sampler. Stateless apart from geometry-derived constants; all
 * randomness comes through the caller's Rng so trials are reproducible.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const SystemConfig &cfg);

    /**
     * Sample every fault arriving within one lifetime, sorted by
     * arrival time. DRAM-internal faults are drawn independently per
     * die (including the ECC die); TSV faults per stack.
     */
    std::vector<Fault> sampleLifetime(Rng &rng) const;

    /**
     * Allocation-reusing variant: clears `out` and fills it with one
     * lifetime's faults. The Monte Carlo hot loop passes the same
     * vector every trial so steady state does no heap traffic.
     */
    void sampleLifetime(Rng &rng, std::vector<Fault> &out) const;

    /** Lifetimes the lane sampler draws at once. */
    static constexpr unsigned kLanes = RngLanes::kLanes;

    /**
     * Eight lifetimes at once, one per lane: lane i leaves outs[i]
     * and rngs[i] exactly as sampleLifetime(rngs[i], outs[i]) would.
     * The eight generators step together through the dispatched
     * zero-cell scan (common/kernels.h); a lane whose cell draws faults
     * leaves the group, draws them on its own Rng and rejoins
     * (DESIGN.md section 9). The one-generator overload above is the
     * same walk with a one-lane scan.
     */
    void sampleLifetime(std::span<Rng, kLanes> rngs,
                        std::span<std::vector<Fault>, kLanes> outs) const;

    /** Materialize a random fault of a class in a given die. */
    Fault makeFault(Rng &rng, FaultClass cls, StackId stack,
                    ChannelId channel, bool transient,
                    double time_hours) const;

    /** Materialize a random TSV fault in a given stack. */
    Fault makeTsvFault(Rng &rng, StackId stack, double time_hours) const;

    /**
     * Sample every *control-plane* upset arriving within one lifetime,
     * sorted by arrival time. Drawn independently of the data-plane
     * faults (separate Poisson process at cfg.metaFit per stack), with
     * targets uniform over the slots described by `mg`. Empty when
     * cfg.metaFit == 0.
     */
    std::vector<MetaFault> sampleMetaLifetime(Rng &rng,
                                              const MetaGeometry &mg) const;

    /** Materialize a random control-plane upset in a given stack. */
    MetaFault makeMetaFault(Rng &rng, StackId stack, const MetaGeometry &mg,
                            bool transient, double time_hours) const;

    const SystemConfig &config() const { return cfg_; }

  private:
    /**
     * One Poisson process of the sampling loop, with its arrival rate
     * and, for the small-lambda Knuth path, exp(-lambda) precomputed
     * at construction. A lifetime visits 182 of these cells (2 stacks
     * x (9 dies x 5 classes x {transient, permanent} + 1 TSV cell));
     * about 99.6% of them draw zero faults, which the cell's zeroMax_
     * entry decides with one draw and one integer compare.
     * Draw-for-draw stream-identical to calling Rng::poisson(lambda)
     * per cell.
     */
    struct RateCell
    {
        FaultClass cls = FaultClass::Bit;
        bool transient = false;
        double lambda = 0.0;
        double expNegLambda = 1.0;
    };

    /** Cells per die: [Bit, Word, Column, Row, Bank] x {transient,
     *  permanent}. */
    static constexpr u32 kDieCells = 10;

    SystemConfig cfg_;
    TsvMap tsvMap_;
    /** A die's cells in draw order, then the stack's TSV cell. */
    std::array<RateCell, kDieCells + 1> cells_;
    /** Each cell's zero-cell scan threshold, in cells_ order:
     *  Rng::unitThreshold(exp(-lambda)), or kZeroScanSkip for lambda
     *  = 0 and kZeroScanHitAll for lambda >= 30. */
    std::array<u64, kDieCells + 1> zeroMax_;

    /**
     * The frozen cell walk both overloads share: per stack, every
     * die's cells, then the stack's TSV cell. `scan(zeroMax, n, hit)`
     * is a zero-cell scan over the lanes (common/kernels.h);
     * `onHit(cell, stack, channel, hit)` draws the hit lanes' faults.
     */
    template <typename Scan, typename OnHit>
    void walkCells(Scan &&scan, OnHit &&onHit) const;

    /**
     * The faults of a cell that did not draw zero: for lambda < 30,
     * Knuth's product resumed from its first factor `u1` (already
     * known to exceed exp(-lambda)); above, Rng::poisson's normal
     * path. Each fault then draws its time, the Bank -> SubArray split
     * and its location, in the order the determinism contract froze.
     */
    void sampleHits(Rng &rng, std::vector<Fault> &out, const RateCell &cell,
                    StackId stack, ChannelId channel, double u1) const;
};

} // namespace citadel

#endif // CITADEL_FAULTS_INJECTOR_H
