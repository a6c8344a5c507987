/**
 * @file
 * Control-plane (metadata) fault model.
 *
 * The data-plane Fault (fault.h) covers DRAM cells and TSVs; this file
 * covers the RAS machinery's *own* state -- the structures Citadel
 * consults to steer every access. A flipped RRT entry misroutes a
 * spared row, a flipped BRT entry un-decommissions a failed bank, a
 * corrupted TSV redirection register un-does a swap, and a corrupted
 * cached D1 parity line would poison reconstructions. FaultSim-lineage
 * simulators (and the Monte Carlo evaluator here, until this PR)
 * silently assume these SRAM structures are perfect; Cerberus-style
 * cross-layer co-design argues they must carry their own protection.
 *
 * A MetaFault names one word of one protected structure and the bit
 * pattern flipped in it. The ProtectedMetaStore (src/ras) applies the
 * flip to its mirrored+SECDED encoded records; the consistency scrub
 * then detects, retries (transients), corrects (single bit), restores
 * from the mirror (multi-bit), or declares the record lost -- at which
 * point the covered remap entry is dropped and the underlying data
 * fault reactivates, feeding the degradation ladder.
 */

#ifndef CITADEL_FAULTS_META_FAULT_H
#define CITADEL_FAULTS_META_FAULT_H

#include <string>

#include "common/serialize.h"
#include "common/strong_id.h"

namespace citadel {

/** Which control-plane structure a metadata fault lands in. */
enum class MetaTarget
{
    RrtEntry,       ///< A Row Remap Table entry (per-unit slot).
    BrtEntry,       ///< A Bank Remap Table entry (per-stack slot).
    TsvRegister,    ///< A TSV-SWAP redirection register (per channel).
    ParityCacheLine ///< A cached D1 parity line (clean-copy cache way).
};

const char *metaTargetName(MetaTarget target);

/**
 * One control-plane upset: the targeted word, when it arrives, and the
 * bits it flips in the primary and mirror copies. Most upsets hit one
 * copy (mirrorFlipMask == 0); a common-mode hit on both copies is the
 * pattern that can defeat mirroring and must be survived by the
 * degradation ladder instead.
 */
struct MetaFault
{
    MetaTarget target = MetaTarget::RrtEntry;
    StackId stack{};
    ChannelId channel{}; ///< TsvRegister target (and RRT unit's channel).
    UnitId unit{};       ///< RrtEntry: flattened (die, bank) unit.
    MetaSlotId slot{};   ///< Entry index / register lane / cache way.

    u64 flipMask = 0;       ///< Bits flipped in the primary copy.
    u64 mirrorFlipMask = 0; ///< Bits flipped in the mirror copy.

    /** Transient upsets (particle strikes on SRAM) clear on the
     *  scrub's read-retry; permanent ones (stuck cells) persist. */
    bool transient = false;

    double timeHours = 0.0; ///< Arrival time within the lifetime.

    std::string describe() const;
};

/** Checkpoint field list (common/serialize.h). */
void
fields(auto &io, Of<MetaFault> auto &f)
{
    io.enumByte(f.target, MetaTarget::ParityCacheLine,
                "corrupt checkpoint: unknown meta-fault target %u");
    io(f.stack, f.channel, f.unit, f.slot, f.flipMask, f.mirrorFlipMask,
       f.transient, f.timeHours);
}

} // namespace citadel

#endif // CITADEL_FAULTS_META_FAULT_H
