/**
 * @file
 * Analytic Monte Carlo evaluators for the paper's baseline protection
 * schemes:
 *
 *  - SymbolStripedScheme: the "strong 8-bit symbol-based code (similar
 *    to ChipKill)" under the three data mappings of Section II-D. The
 *    code corrects one faulty symbol *position* per codeword, where a
 *    position is a symbol slot (Same-Bank), a bank (Across-Banks) or a
 *    channel (Across-Channels).
 *  - Bch6EC7EDScheme: 6-error-correct / 7-error-detect BCH per 64B
 *    line (Section VIII-F, Fig 19).
 *  - Raid5Scheme: RAID-5-style rotated parity across the data channels
 *    with CRC-based error location (Section VIII-F, Fig 19).
 *
 * Evaluators answer "does the concurrent fault set contain a pattern
 * the code cannot correct?" over FaultRange algebra. They are analytic
 * models: no bit-true decoder checks them.
 */

#ifndef CITADEL_ECC_BASELINE_SCHEMES_H
#define CITADEL_ECC_BASELINE_SCHEMES_H

#include "faults/scheme.h"
#include "stack/address.h"

namespace citadel {

/** ChipKill-like single-symbol-position-correct code. */
class SymbolStripedScheme : public RasScheme
{
  public:
    /** @param mode Data mapping for the cache line. */
    explicit SymbolStripedScheme(StripingMode mode) : mode_(mode) {}

    SchemePtr clone() const override
    {
        return std::make_unique<SymbolStripedScheme>(mode_);
    }

    std::string name() const override;
    bool uncorrectable(const std::vector<Fault> &active) const override;

    StripingMode mode() const { return mode_; }

  private:
    StripingMode mode_;

    bool uncSameBank(const std::vector<Fault> &active) const;
    bool uncAcrossBanks(const std::vector<Fault> &active) const;
    bool uncAcrossChannels(const std::vector<Fault> &active) const;

    /** Symbol slots of one line touched by a fault (Same-Bank mapping). */
    u64 symbolsPerLine(const Fault &f) const;
};

/** BCH 6EC7ED per 64-byte line; no striping (Same-Bank mapping). */
class Bch6EC7EDScheme : public RasScheme
{
  public:
    std::string name() const override { return "BCH-6EC7ED"; }

    SchemePtr clone() const override
    {
        return std::make_unique<Bch6EC7EDScheme>();
    }

    bool uncorrectable(const std::vector<Fault> &active) const override;

  private:
    /** Worst-case corrupted bits within a single line. */
    u64 worstBitsPerLine(const Fault &f) const;
};

/**
 * RAID-5 over the data channels: one channel's worth of each stripe is
 * parity; CRC identifies the bad channel, parity reconstructs it.
 * Fails when two faults in different channels of a stack overlap in
 * (bank, row, col).
 */
class Raid5Scheme : public RasScheme
{
  public:
    std::string name() const override { return "RAID-5"; }

    SchemePtr clone() const override
    {
        return std::make_unique<Raid5Scheme>();
    }

    bool uncorrectable(const std::vector<Fault> &active) const override;
};

} // namespace citadel

#endif // CITADEL_ECC_BASELINE_SCHEMES_H
