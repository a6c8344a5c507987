/**
 * @file
 * Fault representation for the Monte Carlo reliability engine.
 *
 * Following FaultSim (Roberts & Nair, The Memory Forum / ISCA-41), a
 * fault is a *range* over the physical coordinate space
 * (stack, channel, bank, row, col, bit). Each dimension carries a
 * (value, mask) pair: coordinate `a` is inside the range iff
 * ((a ^ value) & mask) == 0. A zero mask makes the dimension a
 * wildcard. This encodes every fault granularity the paper models —
 * a single bit, a 64-bit word, a column (one line slot in every row of
 * a bank), a row, an aligned sub-array, a whole bank, a whole channel,
 * the bit pattern of a faulty data TSV, and the half-address-space
 * shadow of a faulty address TSV — while keeping intersection tests
 * O(1).
 *
 * The metadata (ECC) die is represented as channel index
 * `geom.channelsPerStack` (8 in the baseline), so faults in the ECC die
 * participate in the same algebra.
 */

#ifndef CITADEL_FAULTS_FAULT_H
#define CITADEL_FAULTS_FAULT_H

#include <string>

#include "common/serialize.h"
#include "stack/geometry.h"

namespace citadel {

/** Fault granularities modeled by the simulator. */
enum class FaultClass
{
    Bit,        ///< Single bit.
    Word,       ///< Aligned 64-bit word within a line.
    Column,     ///< One line slot (CAS address) across all rows of a bank.
    Row,        ///< One full row of a bank.
    SubArray,   ///< Aligned block of rows (partial-bank failure).
    Bank,       ///< Entire bank.
    Channel,    ///< Entire channel/die (e.g., command-TSV fault).
    DataTsv,    ///< Faulty data TSV: bits {d, d+N} of every line in channel.
    AddrTsvRow, ///< Faulty row-address TSV: half of all rows in channel.
    AddrTsvBank ///< Faulty bank-address TSV: half of all banks in channel.
};

/** Display name of a fault class. */
const char *faultClassName(FaultClass cls);

/** True for the three TSV-originated classes (plus Channel when it is
 *  produced by a command-TSV fault; the injector tags that via
 *  Fault::fromTsv). */
bool isTsvClass(FaultClass cls);

/** One dimension of a fault range: matches a iff ((a^value)&mask)==0. */
struct DimSpec
{
    u32 value = 0;
    u32 mask = 0;

    /** Fully specified (single coordinate) dimension. */
    static DimSpec exact(u32 v) { return {v, 0xFFFFFFFFu}; }
    /** Wildcard dimension. */
    static DimSpec wild() { return {0, 0}; }
    /** Partial dimension: significant bits given by mask. */
    static DimSpec masked(u32 v, u32 m) { return {v & m, m}; }

    bool matches(u32 a) const { return ((a ^ value) & mask) == 0; }

    /** Do two specs admit a common coordinate? */
    bool intersects(const DimSpec &o) const
    {
        return ((value ^ o.value) & mask & o.mask) == 0;
    }

    /** Number of matching coordinates in a space of `width` bits. */
    u64 coverage(u32 width) const;

    bool operator==(const DimSpec &) const = default;
};

/**
 * A fault range plus bookkeeping: class, permanence and arrival time.
 */
struct Fault
{
    DimSpec stack;
    DimSpec channel;
    DimSpec bank;
    DimSpec row;
    DimSpec col;
    DimSpec bit;

    FaultClass cls = FaultClass::Bit;
    bool transient = false;
    bool fromTsv = false;   ///< Originated in a TSV (repairable by swap).
    double timeHours = 0.0; ///< Arrival time within the lifetime.
    TsvLane tsvIndex{};     ///< For TSV faults: which TSV lane.

    /** Does this fault cover the given bit coordinate? */
    bool covers(StackId s, ChannelId ch, BankId b, RowId r, ColId c,
                u32 bit_pos) const;

    /** Do two fault ranges overlap anywhere? */
    bool intersects(const Fault &o) const;

    /** Number of distinct rows covered within one bank. */
    u64 rowsCovered(const StackGeometry &geom) const;
    /** Number of distinct banks covered within one channel. */
    u64 banksCovered(const StackGeometry &geom) const;
    /** Number of distinct channels covered (data + ECC die space). */
    u64 channelsCovered(const StackGeometry &geom) const;

    /** Bits of one specific cache line covered by this fault (0..512). */
    u64 bitsPerLine(const StackGeometry &geom) const;

    /** Single (channel, bank) unit? (needed for D1 reconstruction). */
    bool singleBank(const StackGeometry &geom) const
    {
        return banksCovered(geom) == 1 && channelsCovered(geom) == 1;
    }

    std::string describe() const;

    bool operator==(const Fault &) const = default;
};

/** Checkpoint field lists (common/serialize.h). */
void
fields(auto &io, Of<DimSpec> auto &d)
{
    io(d.value, d.mask);
}

void
fields(auto &io, Of<Fault> auto &f)
{
    io(f.stack, f.channel, f.bank, f.row, f.col, f.bit);
    io.enumByte(f.cls, FaultClass::AddrTsvBank,
                "corrupt checkpoint: unknown fault class %u");
    io(f.transient, f.fromTsv, f.timeHours, f.tsvIndex);
}

} // namespace citadel

#endif // CITADEL_FAULTS_FAULT_H
