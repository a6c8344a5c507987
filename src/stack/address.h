/**
 * @file
 * Physical address mapping and data-striping policies.
 *
 * The timing simulator works on system-wide cache-line indices; this
 * translates them to (stack, channel, bank, row, col) coordinates and
 * expands one logical line access into the per-bank sub-requests implied
 * by the striping mode under study (Section II-D of the paper).
 */

#ifndef CITADEL_STACK_ADDRESS_H
#define CITADEL_STACK_ADDRESS_H

#include <vector>

#include "stack/geometry.h"

namespace citadel {

/**
 * Data placement policies for a cache line (Section II-D).
 */
enum class StripingMode
{
    SameBank,       ///< Entire 64B line in one bank (Citadel's mapping).
    AcrossBanks,    ///< Striped over all banks of one channel/die.
    AcrossChannels, ///< Striped over one bank in each channel.
};

/** Short display name ("Same-Bank", ...). */
const char *stripingModeName(StripingMode mode);

/**
 * Hybrid-interleaved address map. Bit order from LSB to MSB of the
 * line index: col_lo (2 bits), channel, bank, col_hi, stack, row.
 * Consecutive lines form a short 256B burst inside one DRAM row (open-
 * page locality for the Same-Bank mapping, Section II-D), then rotate
 * across channels and banks for parallelism. Under this layout the 64
 * data lines sharing one Dimension-1 parity line (same stack, row and
 * col across the (die, bank) grid) are packed into one 16KB span, so a
 * streaming writeback burst re-touches each parity line ~64 times --
 * the "very high temporal locality" that makes on-demand parity
 * caching effective (Section VI-C, Fig 12).
 */
class AddressMap
{
  public:
    explicit AddressMap(const StackGeometry &geom);

    /** Decompose a system-wide line address. */
    LineCoord lineToCoord(LineAddr line) const;

    /** Recompose; inverse of lineToCoord. */
    LineAddr coordToLine(const LineCoord &c) const;

    /**
     * The per-(channel, bank) DRAM accesses needed to move one line
     * under `mode`. SameBank yields 1 access; AcrossBanks yields one per
     * bank of the line's channel; AcrossChannels one per channel (at the
     * line's bank index).
     */
    std::vector<LineCoord> subRequests(const LineCoord &line,
                                       StripingMode mode) const;

    /** Call `fn(const LineCoord &)` on each of subRequests(line, mode),
     *  in order, without building the vector. */
    template <class Fn>
    void
    forEachSubRequest(const LineCoord &line, StripingMode mode,
                      Fn &&fn) const
    {
        switch (mode) {
          case StripingMode::SameBank:
            fn(line);
            return;
          case StripingMode::AcrossBanks:
            for (u32 b = 0; b < geom_.banksPerChannel; ++b) {
                LineCoord c = line;
                c.bank = BankId{b};
                fn(c);
            }
            return;
          case StripingMode::AcrossChannels:
            for (u32 ch = 0; ch < geom_.channelsPerStack; ++ch) {
                LineCoord c = line;
                c.channel = ChannelId{ch};
                fn(c);
            }
            return;
        }
    }

    /** Accesses per line under `mode` (1, banks, or channels). */
    u32 fanout(StripingMode mode) const;

    /** First line address of the reserved D1-parity address space. */
    LineAddr parityBase() const { return LineAddr{geom_.totalLines()}; }

    /**
     * Dimension-1 parity group of a data line (Section VI-C): all data
     * lines sharing one (stack, row, col) slot across the (die, bank)
     * grid belong to one group, XOR-folded into one parity line.
     */
    ParityGroupId d1Group(LineAddr data_line) const;

    /** The parity group holding a (stack, row, col) slot directly. */
    ParityGroupId d1GroupOf(StackId stack, RowId row, ColId col) const;

    /**
     * Dimension-1 parity line address for a data line (Section VI-C):
     * the line storing that line's d1Group() fold. Parity addresses
     * live at parityBase() + group index.
     */
    LineAddr d1ParityLine(LineAddr data_line) const;

    /** Address of a parity group's parity line. */
    LineAddr parityLineOf(ParityGroupId group) const;

    /**
     * Physical DRAM line backing an address: data lines map through
     * unchanged; parity lines map into the distributed parity bank
     * (bank/channel bits derived from the row so no single physical
     * bank bottlenecks, Section VI-A footnote).
     */
    LineAddr parityToPhysical(LineAddr line) const;

    const StackGeometry &geometry() const { return geom_; }

  private:
    StackGeometry geom_;
    u32 chBits_;
    u32 bankBits_;
    u32 colLoBits_;
    u32 colHiBits_;
    u32 stackBits_;
    u32 rowBits_;
};

} // namespace citadel

#endif // CITADEL_STACK_ADDRESS_H
