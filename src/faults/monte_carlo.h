/**
 * @file
 * FaultSim-style Monte Carlo engine (Section III-B): simulates many
 * seven-year device lifetimes with Poisson fault arrivals, a periodic
 * scrub that clears correctable transient faults, scheme-driven repair
 * (TSV-SWAP absorption, DDS sparing), and records the time of the first
 * uncorrectable pattern in each trial.
 */

#ifndef CITADEL_FAULTS_MONTE_CARLO_H
#define CITADEL_FAULTS_MONTE_CARLO_H

#include <array>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "common/stats.h"
#include "faults/scheme.h"

namespace citadel {

/** Aggregate result of a Monte Carlo reliability run. */
struct McResult
{
    u64 trials = 0;
    u64 failures = 0; ///< Trials with an uncorrectable fault in-lifetime.

    /** failuresByYear[y] = trials failing within the first y+1 years. */
    std::vector<u64> failuresByYear;

    /**
     * Failure attribution: class of the fault whose arrival completed
     * the uncorrectable pattern. Shows what actually kills a scheme
     * (e.g., bank-pair accumulation vs TSV faults).
     */
    std::map<FaultClass, u64> failuresByClass;

    /** Mean faults injected per trial (diagnostic). */
    double meanFaultsPerTrial = 0.0;

    /** P(system failure within the full lifetime) with 95% Wilson CI. */
    Proportion probFail() const { return wilson(failures, trials); }

    /** P(system failure within the first `years` years). */
    Proportion probFailByYear(u32 years) const;
};

/**
 * The engine. Stateless between runs; all randomness flows from the
 * seed so results are exactly reproducible.
 *
 * Parallel determinism contract (DESIGN.md section 9): every trial t
 * seeds its own Rng from `seed ^ K*(t+1)`, so a trial's outcome
 * depends only on (seed, t), never on which worker ran it or in what
 * order. Workers operate on RasScheme::clone()s of the caller's
 * scheme and accumulate integer-only shards (failure counts, by-year
 * counts, by-class counts, total fault count) whose merge is exact
 * and commutative. A run is therefore bit-identical for any thread
 * count, including the serial path — enforced by
 * tests/test_monte_carlo_parallel.cc.
 */
class MonteCarlo
{
  public:
    explicit MonteCarlo(const SystemConfig &cfg);

    /**
     * Run `trials` independent lifetimes against `scheme`.
     * The scheme is reset() at the start of every trial.
     *
     * @param threads Worker count; 0 resolves CITADEL_THREADS /
     *        hardware_concurrency via citadelThreads(). 1 runs the
     *        legacy in-place serial path on `scheme` itself; more
     *        shard the trial range over clones of `scheme`.
     */
    McResult run(RasScheme &scheme, u64 trials, u64 seed = 1,
                 unsigned threads = 0) const;

    /**
     * Single-lifetime simulation given a pre-sampled fault history,
     * sorted by arrival time. The scheme is reset() first.
     * @param trigger_class When non-null and the trial fails, receives
     *        the class of the fault that completed the fatal pattern.
     * @param active Cleared and used as the concurrent-fault working
     *        set, so a caller running many trials reuses one
     *        allocation throughout.
     * @return first-failure time in hours, or a negative value if the
     *         lifetime completes without an uncorrectable pattern.
     */
    double runTrial(RasScheme &scheme, std::span<const Fault> events,
                    FaultClass *trigger_class,
                    std::vector<Fault> &active) const;

    const SystemConfig &config() const { return cfg_; }

  private:
    /** Order-independent partial result of a contiguous trial range. */
    struct Shard
    {
        u64 failures = 0;
        u64 totalFaults = 0;
        std::vector<u64> failuresByYear;
        std::map<FaultClass, u64> failuresByClass;
    };

    /** One fault vector per lane of the sampler, reused across trials. */
    using LaneEvents = std::array<std::vector<Fault>, FaultInjector::kLanes>;

    /**
     * Run trials [begin, end) into `shard`: seed each trial's Rng,
     * sample FaultInjector::kLanes (eight) lifetimes at once into
     * `events` through the lane sampler (fewer than eight left over go
     * one at a time), execute them. Bookkeeping runs in ascending
     * trial order; the merge in run() is order-independent anyway.
     */
    void runRange(RasScheme &scheme, u64 begin, u64 end, u64 seed,
                  u32 years, Shard &shard, LaneEvents &events,
                  std::vector<Fault> &active) const;

    SystemConfig cfg_;
    FaultInjector injector_;
};

} // namespace citadel

#endif // CITADEL_FAULTS_MONTE_CARLO_H
