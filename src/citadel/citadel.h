/**
 * @file
 * Citadel top-level: factories assembling the full scheme stack
 * (TSV-SWAP over DDS over 3DP) and the paper's baselines, plus the
 * storage-overhead accounting of Section VII-E.
 *
 * This is the primary public entry point of the library:
 *
 * @code
 *   citadel::SystemConfig cfg;            // Table I / Table II defaults
 *   cfg.tsvDeviceFit = 1430.0;
 *   auto scheme = citadel::makeCitadel();
 *   citadel::MonteCarlo mc(cfg);
 *   auto res = mc.run(*scheme, 100000);
 *   std::cout << res.probFail().estimate << "\n";
 * @endcode
 */

#ifndef CITADEL_CITADEL_CITADEL_H
#define CITADEL_CITADEL_CITADEL_H

#include "citadel/dds.h"
#include "citadel/three_d_parity.h"
#include "citadel/tsv_swap.h"
#include "ecc/baseline_schemes.h"
#include "faults/monte_carlo.h"

namespace citadel {

/** Knobs for the full Citadel scheme; defaults follow the paper. */
struct CitadelOptions
{
    u32 parityDims = 3;          ///< 3DP (1/2 for the Fig 14 ablations).
    bool enableTsvSwap = true;   ///< TSV-SWAP component.
    bool enableDds = true;       ///< DDS component.
    u32 standbyTsvsPerChannel = 4; ///< test-only: 1 reaches exhaustion.
    u32 spareRowsPerBank = 4;
    u32 spareBanksPerStack = 2;
};

/** Full Citadel: TSV-SWAP( DDS( 3DP ) ) with paper defaults. */
SchemePtr makeCitadel(const CitadelOptions &opts = {});

/** Bare multi-dimensional parity (no sparing / swap). */
SchemePtr makeParityOnly(u32 dims, bool tsv_swap = false);

/** ChipKill-like SSC baseline under a striping mode. */
SchemePtr makeSymbolBaseline(StripingMode mode, bool tsv_swap = false);

/** BCH 6EC7ED per-line baseline (Fig 19). */
SchemePtr makeBchBaseline();

/** RAID-5 baseline (Fig 19). */
SchemePtr makeRaid5Baseline();

/**
 * Storage-overhead accounting (Section VII-E): the metadata die, the
 * D1 parity bank, on-chip D2/D3 parity and the remap tables.
 */
struct StorageOverhead
{
    double eccDieFraction = 0.0;   ///< Extra die / data dies (12.5%).
    double parityBankFraction = 0.0; ///< 1 bank / total banks (~1.6%).
    u64 sramParityBytes = 0;       ///< D2+D3 parity rows (34 KB).
    u64 sramRemapBytes = 0;        ///< RRT + BRT (~1 KB).

    /** Total DRAM overhead fraction (~14%). */
    double dramFraction() const
    {
        return eccDieFraction + parityBankFraction;
    }
};

/** Compute the overheads for a geometry (defaults match the paper). */
StorageOverhead computeOverhead(const SystemConfig &cfg,
                                const CitadelOptions &opts = {});

} // namespace citadel

#endif // CITADEL_CITADEL_CITADEL_H
