/**
 * @file
 * Bit-true Tri-Dimensional Parity engine.
 *
 * Realizes a miniature single-stack memory with actual byte storage,
 * CRC-32 per line, and literal XOR parity in the three dimensions of
 * Section VI. Faults flip the covered bits; reconstruction runs the
 * same per-column-slot peeling the analytic MultiDimParityScheme
 * models, and verifies recovered data against the golden image.
 *
 * The Dimension-1 parity store is itself modeled as one more
 * (die, bank) unit — die index parityDie(), bank 0 — with its own byte
 * storage and per-line CRCs, so faults landing in the parity bank can
 * be injected and corrected like any data fault (the D2 fold of the
 * parity unit and the D3 group of bank position 0 cover it).
 *
 * Purpose: (1) executable specification of 3DP correction, (2) ground
 * truth for property tests that cross-check the analytic Monte Carlo
 * evaluator, (3) the storage model behind the live RAS datapath
 * (src/ras), which needs per-line detection and demand-time correction
 * rather than whole-memory reconstruction.
 */

#ifndef CITADEL_CITADEL_PARITY_ENGINE_H
#define CITADEL_CITADEL_PARITY_ENGINE_H

#include <vector>

#include "faults/fault.h"

namespace citadel {

/** Bit-true 3DP over a (small) single-stack geometry. */
class ParityEngine
{
  public:
    /**
     * @param geom Geometry; stacks must be 1. Die count is
     *        channelsPerStack + 1 (data dies plus metadata die), as in
     *        the analytic model.
     * @param seed Seeds the pseudo-random memory image.
     */
    ParityEngine(const StackGeometry &geom, u64 seed = 42);

    /**
     * Flip every bit covered by each fault (stack coordinate 0); a bit
     * covered by several faults flips once. Faults whose channel
     * matches parityDie() (with bank 0) corrupt the D1 parity store
     * instead of data. Costs O(lines covered x faults), plus one CRC
     * per line flipped since restore() to refresh its cached verdict.
     */
    void corrupt(const std::vector<Fault> &faults);

    /**
     * Bring the image to restore() + corrupt(faults). When `faults`
     * equals the set the last rebuild() built from, only the lines
     * fixed since then are copied back, so the cost is O(lines fixed)
     * rather than O(lines covered); bytes and verdicts are the same
     * either way.
     */
    void rebuild(const std::vector<Fault> &faults);

    /**
     * CRC-detect corrupt lines and peel-reconstruct using `dims`
     * parity dimensions.
     * @return true iff every corrupt line was reconstructed and the
     *         memory image (data and parity) matches the golden copy.
     */
    bool reconstruct(u32 dims = 3);

    /**
     * Would reconstruct() succeed? Runs the same peel on the corrupt
     * set without touching any bytes (the peel decision depends only on
     * which lines are corrupt, not their contents).
     */
    bool peelable(u32 dims = 3) const;

    /** Lines whose CRC currently mismatches (data + parity store). */
    u64 corruptLineCount() const;

    /** Does every cached per-line verdict equal a fresh CRC of the
     *  line, and the peel's group counts a recount of the verdicts?
     *  Tests check the cache with it. */
    bool verdictsMatchCrc() const;

    /** Total data lines in the modeled stack (excludes parity store). */
    u64 totalLines() const;

    /** Restore the pristine image, copying back only the lines
     *  corrupt() flipped. */
    void restore();

    /** Die index addressing the D1 parity unit in this model. */
    DieId parityDie() const { return DieId{dies_}; }

    /** CRC verdict for one line; die == parityDie() selects parity. */
    bool lineCorruptAt(DieId die, BankId bank, RowId row, ColId col) const;

    /** Byte-exact comparison against the golden image. */
    bool lineMatchesGolden(DieId die, BankId bank, RowId row,
                           ColId col) const;

    /** FNV-1a digest of the live byte image: data lines, then the D1
     *  parity store. Tests pin it. */
    u64 imageDigest() const;

    /** Outcome of a demand-time single-line correction. */
    struct DemandFix
    {
        bool corrected = false;
        u32 dimUsed = 0;    ///< Dimension that rebuilt the target line.
        u32 groupReads = 0; ///< DRAM line reads consumed while peeling.
        u32 linesFixed = 0; ///< Lines rebuilt (target + dependencies).
    };

    /**
     * Correct one line the way the controller does on a demand read:
     * peel whatever parity groups are solvable, preferring the target,
     * and stop as soon as the target line verifies. Unlike
     * reconstruct() this leaves other corrupt lines corrupt.
     */
    DemandFix correctLine(DieId die, BankId bank, RowId row, ColId col,
                          u32 dims = 3);

  private:
    struct CorruptLine
    {
        DieId die;
        BankId bank;
        RowId row;
        ColId col;

        bool operator==(const CorruptLine &) const = default;
    };

    /**
     * Corrupt-line counts per parity group: D1 by (row, col), D2 by
     * (die, col) with the parity unit at die dies_, D3 by (bank, col)
     * with the parity unit at bank 0. A line peels in a dimension when
     * it is the only corrupt member of its group there, so peelDim()
     * is O(1).
     */
    struct GroupCounts
    {
        u32 cols = 0;
        std::vector<i32> d1, d2, d3;

        GroupCounts() = default;
        GroupCounts(const StackGeometry &g, u32 dies);
        void add(const CorruptLine &l, i32 delta);
        /** Lowest dimension (<= dims; D1 always) rebuilding corrupt
         *  line `l` from the rest of its group; 0 when none can. */
        u32 peelDim(const CorruptLine &l, u32 dims) const;
        bool operator==(const GroupCounts &) const = default;
    };

    StackGeometry geom_;
    u32 dies_;

    // Storage lines: the data lines by lineIndex(), then the live D1
    // parity store (one more (die, bank) unit, faultable) by
    // parityLine(). A storage line's ordinal is also its CRC address,
    // which keeps parity CRCs from aliasing data CRCs.
    std::vector<u8> data_;
    std::vector<u8> golden_;
    std::vector<u32> crc_; ///< Golden CRC-32 per storage line.

    // Storage lines corrupt() flipped since the last restore(), sorted
    // by storage line, each once; their order is the peels' scan
    // order. Every other line equals golden, so restore() and CRC
    // detection visit only these. `corrupt` caches the line's CRC
    // verdict: corrupt() computes it and fixLine() clears it, so a
    // peel reads it instead of CRCing the line again. groups_ counts
    // the lines whose verdict is corrupt; setVerdict() keeps the two
    // in step.
    struct DirtyLine
    {
        u64 line;
        CorruptLine at;
        bool corrupt = false;
    };
    std::vector<DirtyLine> dirty_;
    GroupCounts groups_;

    // The fault set the image was last built from by rebuild() (valid
    // while built_), and the dirty_ lines fixLine() has overwritten
    // since the last corrupt() or restore(), with their old bytes at
    // the same ordinal in undoBytes_. A fixed line was corrupt, so
    // undoing it marks it corrupt again.
    std::vector<Fault> builtFrom_;
    bool built_ = false;
    std::vector<std::size_t> undoLines_;
    std::vector<u8> undoBytes_;

    // SRAM parity (Section VI-B), modeled fault-free. parity2_ has one
    // extra segment (index dies_) folding the parity store's rows;
    // parity3_'s bank-0 segment folds the parity store as well, since
    // the parity unit sits at bank position 0.
    std::vector<u8> parity2_; ///< [die][col][byte] folding all rows.
    std::vector<u8> parity3_; ///< [bank][col][byte] folding dies+rows.

    /** Storage line of a data line. */
    u64 lineIndex(DieId die, BankId bank, RowId row, ColId col) const;
    /** D1 parity group of a (row, col) slot; doubles as the ordinal of
     *  the group's line in the parity store. */
    ParityGroupId parityIndex(RowId row, ColId col) const;
    /** Storage line of the D1 parity line of a (row, col) slot. */
    u64 parityLine(RowId row, ColId col) const;
    u64 storageLine(const CorruptLine &l) const;
    u8 *linePtr(std::vector<u8> &buf, u64 storage_line);
    const u8 *linePtr(const std::vector<u8> &buf, u64 storage_line) const;

    bool lineCorrupt(u64 storage_line) const;
    void setVerdict(DirtyLine &l, bool corrupt);
    /** dirty_ slot of a storage line; dirty_.size() when clean. */
    std::size_t slotOf(u64 storage_line) const;
    /** First corrupt, peelable dirty_ slot at or after `from`;
     *  dirty_.size() when none. */
    std::size_t firstPeelable(u32 dims, std::size_t from = 0) const;
    void checkCoord(DieId die, BankId bank, RowId row, ColId col) const;

    void buildParity();
    /** Rebuild dirty_[slot] from its parity group in `dim`, logging
     *  its old bytes for rebuild(). */
    void fixLine(std::size_t slot, u32 dim);
    u32 groupReadCost(const CorruptLine &l, u32 dim) const;

    /** XOR-reconstruct one line from a parity group. */
    void fixViaD1(DieId die, BankId bank, RowId row, ColId col);
    void fixViaD2(DieId die, BankId bank, RowId row, ColId col);
    void fixViaD3(DieId die, BankId bank, RowId row, ColId col);

    // Scratch for the multi-source XOR kernel (xorFoldN): group
    // rebuilds gather every source line pointer here and fold them in
    // one pass, so the accumulator is touched once per rebuild
    // instead of once per source. Reused across fixes; sized by the
    // largest parity group.
    std::vector<const u8 *> foldSrcs_;
    std::vector<u8> accScratch_;
    /** corrupt() scratch: one line bit mask per fault. */
    std::vector<u8> faultMasks_;
};

} // namespace citadel

#endif // CITADEL_CITADEL_PARITY_ENGINE_H
