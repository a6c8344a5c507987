/**
 * @file
 * Top-level timing simulation: 8 cores in rate mode (all running the
 * same benchmark, Section III-B) over the shared LLC and the stacked
 * DRAM, with the RAS-traffic side effects of the configuration under
 * study:
 *
 *  - baseline / striped symbol code: plain reads and writebacks;
 *  - 3DP: every writeback performs a read-before-write (RBW, Fig 12)
 *    and a Dimension-1 parity update that hits in the LLC or fetches
 *    the parity line from DRAM (cached mode), or reads+writes parity
 *    in DRAM directly (uncached mode).
 *
 * An optional RasHook (see sim/ras_hook.h) adds the live error path:
 * every completed demand read is checked against the bit-true fault
 * state; detection/correction costs a read-retry plus the parity-group
 * reads, charged as real memory traffic the demanding core waits on.
 *
 * The clock advances either cycle-by-cycle or event-driven (skipping
 * stretches in which every component is provably idle); the two modes
 * produce bit-identical results (DESIGN.md section 10) and are
 * selected by SimConfig::stepping (default: event).
 */

#ifndef CITADEL_SIM_SYSTEM_SIM_H
#define CITADEL_SIM_SYSTEM_SIM_H

#include <deque>

#include "sim/llc.h"
#include "sim/memory_system.h"
#include "sim/power.h"
#include "sim/ras_hook.h"
#include "sim/workload.h"

namespace citadel {

/** Results of one timing-simulation run. */
struct SimResult
{
    u64 cycles = 0;
    u64 insnsRetired = 0;
    MemCounters mem;
    LlcStats llc;
    PowerResult power;

    /** Capacity lost to the degradation ladder by end of run, in
     *  cache lines, and the usable fraction remaining (1.0 when no
     *  RAS hook or nothing retired). */
    u64 retiredLines = 0;
    double capacityFraction = 1.0;

    double parityHitRate() const { return llc.parityHitRate(); }
};

/** One simulated system executing one benchmark in rate mode. */
class SystemSim
{
  public:
    SystemSim(const SimConfig &cfg, const BenchmarkProfile &profile);

    /**
     * Attach a live RAS datapath consulted on every completed demand
     * read. Not owned; must outlive run(). Pass nullptr to detach.
     */
    void attachRas(RasHook *hook)
    {
        ras_ = hook;
        mem_.attachRetirement(hook ? hook->retirementMap() : nullptr);
    }

    /** Run to completion (every core retires its instruction budget). */
    SimResult run();

    /** The tag compare the constructor's LLC warm-up fills with in the
     *  active kernel mode ("scalar-u64", "vector2x4x64",
     *  "vector2x4x64-avx2" or "vector8x64-avx512"), for reporting. */
    static const char *warmFillPath();

  private:
    struct Core
    {
        u64 retired = 0;
        u64 nextMissAt = 0;
        u32 outstanding = 0;
        AddressStream stream;
        Rng rng;

        Core(AddressStream s, Rng r)
            : stream(std::move(s)), rng(r)
        {
        }
    };

    /** A read some core is waiting on, slot-addressed by its token.
     *  `token == 0` marks a free slot (read tokens are never 0). */
    struct PendingRead
    {
        u64 token = 0;
        u32 core = 0;
        LineAddr line{};     ///< Demanded data line.
        bool replay = false; ///< Correction replay: release, no re-check.
    };

    /** A deferred writeback. Raw entries carry a physical DRAM line
     *  that bypasses the RAS traffic path (deferred D1 parity writes:
     *  their parity maintenance already happened); the rest are data
     *  lines that run the full processWriteback treatment. */
    struct PendingWb
    {
        LineAddr line{};
        bool raw = false;
    };

    SimConfig cfg_;
    const BenchmarkProfile &profile_;
    Rng::Odds dirtyOdds_; ///< profile_.writeFrac, for each fill's draw.
    MemorySystem mem_;
    Llc llc_;
    std::vector<Core> cores_;
    /** Demand reads in flight, indexed by MemorySystem::tokenSlot. */
    std::vector<PendingRead> pendingReads_;
    std::deque<PendingWb> pendingWritebacks_;
    RasHook *ras_ = nullptr;

    /** Dimension-1 parity line address for a data line (Section VI-C). */
    LineAddr parityLineFor(LineAddr data_line) const;

    /** Physical DRAM line backing a (possibly parity-space) address. */
    LineAddr physicalFor(LineAddr line) const;

    void coreTick(u32 core_idx);
    void issueMiss(Core &core, u32 core_idx);

    /** Track a demand read so its completion releases `core_idx`. */
    void trackRead(u64 token, u32 core_idx, LineAddr line, bool replay);

    /** Write `phys` now if the queue has room, else defer it as a raw
     *  writeback (no RAS side effects when it drains). */
    void queueRawWrite(LineAddr phys);

    /** Run the RAS error path for one completed demand read. */
    void handleDemandCompletion(const PendingRead &pr, u64 cycle);

    /** Handle a dirty-line writeback including RAS side effects.
     *  @return false if the memory could not accept it (retry later). */
    bool processWriteback(LineAddr line);

    /** Issue one deferred writeback (raw or full-treatment). */
    bool tryWriteback(const PendingWb &wb);

    /** One full simulation cycle: RAS tick, writeback drain, core
     *  ticks, memory tick, completion drain. */
    void stepCycle(u64 cycle);

    /**
     * Earliest cycle >= `now` at which stepCycle could do anything
     * beyond idle instruction retirement: a core reaches a miss point
     * or its budget end, a parked core can issue again, a deferred
     * writeback can drain, the memory has an event, or the RAS hook
     * does. Strictly before it, stepCycle == advanceIdle(1).
     */
    u64 nextInterestingCycle(u64 now);

    /** Batch-retire `cycles` worth of provably idle cycles. */
    void advanceIdle(u64 cycles);

    void sampleNextMiss(Core &core);
};

} // namespace citadel

#endif // CITADEL_SIM_SYSTEM_SIM_H
