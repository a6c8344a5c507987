/**
 * @file
 * Machine-check-style event log and per-run error accounting for the
 * live RAS datapath.
 *
 * Taxonomy follows the standard RAS vocabulary:
 *
 *  - CE  (corrected error): CRC-32 detected a bad line on a demand
 *    read and 3DP reconstruction returned data verified bit-identical
 *    to golden;
 *  - DUE (detected uncorrectable error): CRC detected the line but
 *    peeling stalled; the line is poisoned and reported, execution
 *    continues (no abort);
 *  - SDC (silent data corruption): reconstruction "succeeded" but the
 *    recovered bytes differ from golden -- the model's analogue of a
 *    miscorrection, counted so tests can assert it never happens.
 */

#ifndef CITADEL_RAS_RAS_EVENT_H
#define CITADEL_RAS_RAS_EVENT_H

#include <string>
#include <vector>

#include "faults/fault.h"

namespace citadel {

/** What kind of RAS event occurred. */
enum class RasEventType
{
    FaultInjected,      ///< A sampled fault materialized in storage.
    CorrectableError,   ///< CE: detected and corrected on demand.
    UncorrectableError, ///< DUE: detected, reported, poisoned.
    SilentCorruption,   ///< SDC: correction verified wrong vs golden.
    RowSpared,          ///< DDS retired a row into the RRT.
    BankSpared,         ///< DDS decommissioned a bank into the BRT.
    TsvRepaired,        ///< TSV-SWAP absorbed a TSV fault.
    SparingDenied,      ///< Spare budget exhausted; fault stays live.
    Divergence,         ///< Analytic and bit-true verdicts disagreed.
    PageOfflined,       ///< Ladder: a DUE'd row was retired.
    BankRetired,        ///< Ladder: a bank was taken out of service.
    ChannelDegraded,    ///< Ladder: a whole channel was given up.
    MetaFaultInjected,  ///< A control-plane upset materialized.
    MetaCorrected,      ///< Meta scrub: SECDED fixed a record.
    MetaMirrorRestored, ///< Meta scrub: primary rebuilt from mirror.
    MetaRecordLost,     ///< Meta scrub: both copies unrecoverable.
    ParityCacheRefetched, ///< Lost parity-cache way refetched clean.
};

const char *rasEventTypeName(RasEventType t);

/** One entry in the event log. */
struct RasEvent
{
    RasEventType type;
    u64 cycle = 0;       ///< Simulator cycle (0 when outside a run).
    LineAddr line{};     ///< Affected line address, when applicable.
    u32 dimUsed = 0;     ///< Parity dimension that corrected (CE only).
    u32 groupReads = 0;  ///< DRAM reads the correction consumed.
    FaultClass cls = FaultClass::Bit; ///< Class of the causing fault.
    std::string detail;  ///< Free-form context (fault description...).

    std::string describe() const;
};

/** Per-run totals; the run summary of the acceptance criteria. */
struct RasCounters
{
    u64 faultsInjected = 0;
    u64 faultsAbsorbed = 0; ///< Absorbed on arrival (TSV-SWAP, spared).
    u64 demandReads = 0;    ///< Reads routed through the datapath.
    u64 remappedReads = 0;  ///< Served from spare storage (RRT/BRT).
    u64 crcDetects = 0;     ///< CRC-32 mismatches on demand reads.
    u64 retries = 0;        ///< Read-retry issues (one per detect).
    u64 ce = 0;
    u64 due = 0;            ///< Distinct poisoned lines reported.
    u64 dueReads = 0;       ///< Demand reads returning poisoned data.
    u64 sdc = 0;
    u64 parityGroupReads = 0; ///< Reconstruction reads (charged to mem).
    u64 linesReconstructed = 0;
    u64 rowsSpared = 0;
    u64 banksSpared = 0;
    u64 sparingDenied = 0;
    u64 tsvRepairs = 0;

    // Degradation ladder (capacity given up instead of repaired).
    u64 pagesOfflined = 0;
    u64 banksRetired = 0;
    u64 channelsDegraded = 0;
    u64 retiredAbsorbed = 0; ///< Faults landing inside retired regions.
    u64 offlinedReads = 0;   ///< Demand reads steered off retired space.

    // Control-plane self-protection.
    u64 metaFaultsInjected = 0;
    u64 metaCorrected = 0;      ///< SECDED single-bit fixes at scrub.
    u64 metaMirrorRestored = 0; ///< Primary rebuilt from the mirror.
    u64 metaRecordsLost = 0;    ///< Both copies gone; entry dropped.
    u64 metaScrubRetries = 0;   ///< Read-retry attempts at meta scrub.
    u64 metaBackoffCycles = 0;  ///< Backoff cycles those retries cost.
    u64 parityCacheRefetches = 0;
    u64 faultsReactivated = 0;  ///< Data faults un-spared by meta loss.

    /**
     * Dangerous differential disagreements: the analytic model called
     * the active set correctable while the bit-true peel lost data.
     * Must stay zero — the Monte Carlo results rest on it.
     */
    u64 divergences = 0;

    /**
     * Benign disagreements in the other direction: the analytic model
     * (which peels whole fault ranges) called the set uncorrectable
     * while the line-granularity bit-true peel recovered it. Expected
     * occasionally — the Monte Carlo evaluator is conservative.
     */
    u64 analyticConservative = 0;

    std::string summary() const;
};

/** Checkpoint field list (common/serialize.h). */
void
fields(auto &io, Of<RasCounters> auto &c)
{
    io(c.faultsInjected, c.faultsAbsorbed, c.demandReads, c.remappedReads,
       c.crcDetects, c.retries, c.ce, c.due, c.dueReads, c.sdc,
       c.parityGroupReads, c.linesReconstructed, c.rowsSpared,
       c.banksSpared, c.sparingDenied, c.tsvRepairs, c.pagesOfflined,
       c.banksRetired, c.channelsDegraded, c.retiredAbsorbed,
       c.offlinedReads, c.metaFaultsInjected, c.metaCorrected,
       c.metaMirrorRestored, c.metaRecordsLost, c.metaScrubRetries,
       c.metaBackoffCycles, c.parityCacheRefetches, c.faultsReactivated,
       c.divergences, c.analyticConservative);
}

/**
 * Bounded event log: keeps the first `capacity` events and counts the
 * rest, so a fault storm cannot blow up memory while the counters stay
 * exact.
 */
class RasLog
{
  public:
    explicit RasLog(std::size_t capacity = 256) : capacity_(capacity) {}

    void append(RasEvent ev);

    const std::vector<RasEvent> &events() const { return events_; }
    u64 dropped() const { return dropped_; }

    RasCounters counters; ///< Updated by the datapath, never dropped.

  private:
    std::size_t capacity_;
    std::vector<RasEvent> events_;
    u64 dropped_ = 0;
};

} // namespace citadel

#endif // CITADEL_RAS_RAS_EVENT_H
