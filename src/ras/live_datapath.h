/**
 * @file
 * Live RAS datapath: the paper's runtime error flow, executed against
 * bit-true storage while the timing simulator runs.
 *
 * Faults (sampled by FaultInjector or built by hand) are scheduled at a
 * cycle and materialize as real bit corruption in a per-stack
 * ParityEngine. Every demand read the simulator completes is routed
 * through onDemandRead(), which walks the full Section V-VII flow:
 *
 *   CRC-32 detect -> read-retry -> 3DP peel-reconstruction (extra
 *   parity-group reads returned to the sim so they are charged as DRAM
 *   traffic and correction latency) -> DDS row/bank sparing so
 *   subsequent accesses are remapped -> TSV-SWAP absorbing TSV faults
 *   before they ever corrupt storage.
 *
 * An uncorrectable pattern is reported as a machine-check-style DUE
 * event with the line poisoned; the simulation continues. Differential
 * validation cross-checks the bit-true verdict
 * (ParityEngine::peelable) against the analytic MultiDimParityScheme
 * verdict on every change of the active fault set. The analytic model
 * peels whole fault ranges and is therefore conservative: it may call
 * a set uncorrectable that the line-granularity peel recovers (counted
 * as analyticConservative). The reverse — analytic claims correctable
 * while the bit-true machine loses data — is a modeling bug, flagged
 * as a first-class Divergence event; tests require zero.
 *
 * Faithfulness notes:
 *  - transient faults keep their cells corrupt until the next scrub
 *    (FaultSim semantics), so an unspared transient line re-corrects
 *    on every access -- exactly the overhead DDS exists to remove;
 *  - the engine's state is always golden XOR (union of active fault
 *    masks); demand corrections are re-applied by rebuilding, keeping
 *    the bit-true and analytic models comparable at any instant.
 */

#ifndef CITADEL_RAS_LIVE_DATAPATH_H
#define CITADEL_RAS_LIVE_DATAPATH_H

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "citadel/citadel.h"
#include "citadel/parity_engine.h"
#include "citadel/remap_tables.h"
#include "common/serialize.h"
#include "faults/meta_fault.h"
#include "ras/degradation.h"
#include "ras/meta_protect.h"
#include "ras/poison_set.h"
#include "ras/ras_event.h"
#include "sim/ras_hook.h"
#include "sim/system_sim.h"

namespace citadel {

/** Configuration of the live datapath. */
struct LiveRasOptions
{
    /** Scheme composition and budgets (parity dims, TSV-SWAP, DDS). */
    CitadelOptions scheme;

    /** Scrub period in memory cycles; 0 disables in-run scrubs.
     *  (A real 12h scrub never fires inside a simulated slice; tests
     *  compress it.) */
    u64 scrubCycles = 0;

    /** Event-log capacity (counters are always exact). test-only: a
     *  tiny log is how a test reaches the eviction of old events. */
    std::size_t maxEvents = 256;

    /** Seed for the engines' pseudo-random memory images. */
    u64 seed = 42;

    /** Degradation-ladder thresholds (page offline -> bank retire ->
     *  channel degrade). test-only: carries the caps tests set. */
    DegradationOptions degrade;

    /** Control-plane self-protection (scrub retry/backoff). */
    ProtectedMetaStore::Options meta;
};

/**
 * Condensed health of one datapath, exported for layers above the
 * device (the fleet coordinator's placement/migration decisions).
 * Everything here is derived from existing state, so the snapshot is
 * deterministic wherever the datapath is.
 */
struct RasHealthSignals
{
    double capacityFraction = 1.0; ///< Usable fraction after the ladder.
    u64 retiredLines = 0;          ///< Capacity given up, in lines.
    u64 due = 0;                   ///< Distinct uncorrectable lines.
    u64 sparingDenied = 0;         ///< Spare-budget exhaustion events.
    u64 metaRecordsLost = 0;       ///< Control-plane records lost.
    u64 channelsDegraded = 0;      ///< Whole channels given up.

    /** Placement-grade health: the coordinator treats a stack below
     *  `floor` usable capacity as needing migration. */
    bool healthyAbove(double floor) const
    {
        return capacityFraction >= floor;
    }
};

/** The live datapath; attach to a SystemSim via attachRas(). */
class LiveRasDatapath final : public RasHook
{
  public:
    explicit LiveRasDatapath(const SimConfig &cfg,
                             const LiveRasOptions &opts = {});

    LiveRasDatapath(const LiveRasDatapath &) = delete;
    LiveRasDatapath &operator=(const LiveRasDatapath &) = delete;

    /** Arrange for `fault` to materialize at `cycle`. The fault's
     *  stack dimension must be exact. */
    void scheduleFault(const Fault &fault, u64 cycle);

    /** Arrange for a control-plane upset to land at `cycle`. The
     *  fault's coordinates must be inside metaGeometry(). */
    void scheduleMetaFault(const MetaFault &fault, u64 cycle);

    /** Slot ranges of the protected structures, for sampling
     *  control-plane faults that match this datapath. */
    MetaGeometry metaGeometry() const;

    // RasHook
    void tick(u64 cycle) override;
    DemandOutcome onDemandRead(LineAddr line, u64 cycle) override;
    u64 nextEventCycle(u64 now) const override;
    const RetirementMap *retirementMap() const override
    {
        return &ladder_.map();
    }

    /** Condensed health snapshot for fleet-level placement. */
    RasHealthSignals healthSignals() const;

    const RasLog &log() const { return log_; }
    const RasCounters &counters() const { return log_.counters; }
    const std::vector<Fault> &activeFaults() const { return active_; }
    const DegradationLadder &ladder() const { return ladder_; }
    const ProtectedMetaStore &metaStore() const { return meta_; }
    const BoundedPoisonSet &poisonSet() const { return poisoned_; }

    /** Is a line currently served from spare storage (RRT/BRT)? */
    bool lineIsRemapped(LineAddr line) const;

    /** The bit-true engine of one stack (tests poke at it). */
    const ParityEngine &engine(StackId stack) const;

    /**
     * Checkpoint the complete logical state: fault sets (active,
     * pending, pending-meta), remap tables, swap registers, poison
     * runs, ladder and meta-store state, and every counter. The
     * engines are NOT serialized -- their state is always derivable
     * (golden XOR active fault masks) and loadState() rebuilds them --
     * and the bounded event log is diagnostic only, so a resumed run
     * is bit-identical in state and counters, not in log text.
     */
    void saveState(ByteSink &sink) const;
    void loadState(ByteSource &src);

    /** FNV-1a over saveState() bytes: the resume-equivalence probe. */
    u64 stateFingerprint() const;

  private:
    SimConfig cfg_;
    LiveRasOptions opts_;
    AddressMap map_;
    u32 dies_; ///< Data + ECC dies per stack.

    // One bit-true model per stack (the engine is single-stack).
    std::vector<std::unique_ptr<ParityEngine>> engines_;
    std::vector<Fault> stackFaults_; ///< rebuildEngines() scratch.

    // Analytic counterpart for differential validation.
    SystemConfig sysCfg_;
    MultiDimParityScheme analytic_;

    /** differentialCheck()'s last verdicts and the active set they
     *  were computed for. Derived state: never saved. */
    struct CheckedSet
    {
        bool valid = false;
        std::vector<Fault> faults;
        bool analyticUnc = false;
        bool bitUnc = false;
    };
    CheckedSet checked_;

    std::vector<Fault> active_;
    std::multimap<u64, Fault> pending_; ///< cycle -> scheduled fault.
    std::multimap<u64, MetaFault> pendingMeta_;

    // Sparing mechanism state (the Section VII-C tables, per stack).
    std::vector<RowRemapTable> rrt_;
    std::vector<BankRemapTable> brt_;
    std::vector<u32> spareRowCursor_;
    std::map<u64, u32> tsvUsed_; ///< (stack, channel) -> stand-by used.
    std::set<u64> tsvBroken_;    ///< Channels whose swap register died.

    /** Faults a live remap entry is covering, keyed by the entry's
     *  slot -- what reactivates when the entry's record is lost. */
    std::map<u64, Fault> rrtSpared_; ///< (stack, unit, slot) key.
    struct BrtSlotState
    {
        u32 unit = 0; ///< Decommissioned stack-global bank ordinal.
        std::vector<Fault> faults;

        friend void fields(auto &io, Of<BrtSlotState> auto &st)
        {
            io(st.unit, st.faults);
        }
    };
    std::map<u64, BrtSlotState> brtSpared_;       ///< (stack, slot) key.
    std::map<u64, std::vector<Fault>> absorbedTsv_; ///< tsvUsed_ keys.

    DegradationLadder ladder_;
    ProtectedMetaStore meta_;

    BoundedPoisonSet poisoned_; ///< DUE lines (default 4096-run cap).
    u64 lastScrub_ = 0;
    RasLog log_;

    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self);

    UnitId unitId(ChannelId channel, BankId bank) const;
    /** Does the fault name exactly one existing stack? */
    bool onOneStack(const Fault &f) const;
    /** Fatal, prefixed by `who`, unless every coordinate of the meta
     *  fault exists in this device's metadata geometry. */
    void checkMetaFault(const MetaFault &f, const char *who) const;
    bool coordRemapped(const LineCoord &c) const;
    bool inSparedBank(const Fault &f) const;
    void materialize(const Fault &f, u64 cycle);
    void materializeMeta(const MetaFault &f, u64 cycle);
    void scrub(u64 cycle);

    /** Verify/repair the protected metadata; react to lost records. */
    void metaScrub(u64 cycle);

    /** Is the fault wholly contained in a retired region? */
    bool faultRetired(const Fault &f) const;

    /** Drop active faults swallowed by retirement (both models). */
    void dropRetired(u64 cycle);

    /** Count + log the rungs one ladder action climbed. */
    void noteLadder(const DegradationLadder::Action &act, u64 cycle,
                    FaultClass cls, const std::string &detail);

    /** Track a fault absorbed into an already-decommissioned bank. */
    void recordSparedBankAbsorb(const Fault &f);

    /** Retire one permanent single-bank fault into spare storage. */
    bool trySpare(const Fault &f, u64 cycle);

    /** Spare permanent faults covering a just-corrected coordinate. */
    void spareCovering(const LineCoord &c, u64 cycle);

    /** Bring each engine to golden XOR its stack's active faults
     *  (ParityEngine::rebuild: O(lines fixed) when the set is
     *  unchanged). */
    void rebuildEngines();

    void differentialCheck(u64 cycle);

    /** Addresses of the parity group that rebuilt `c` via `dim`. */
    void appendGroupReads(std::vector<LineAddr> &out, const LineCoord &c,
                          u32 dim) const;

    void logEvent(RasEvent ev);
};

} // namespace citadel

#endif // CITADEL_RAS_LIVE_DATAPATH_H
