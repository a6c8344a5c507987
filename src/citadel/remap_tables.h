/**
 * @file
 * Bit-true Row Remap Table (RRT) and Bank Remap Table (BRT) of Section
 * VII-C. These are the on-chip lookup structures DDS consults on every
 * memory access: the BRT first (two entries, one per spare bank), then
 * the four RRT entries of the addressed bank. The Monte Carlo DdsScheme
 * models their *policy*; these classes model the *mechanism* -- entry
 * formats, capacity, and per-access redirection -- and are what the
 * fault-injection example and unit tests exercise.
 */

#ifndef CITADEL_CITADEL_REMAP_TABLES_H
#define CITADEL_CITADEL_REMAP_TABLES_H

#include <optional>
#include <vector>

#include "common/serialize.h"
#include "stack/geometry.h"

namespace citadel {

/**
 * Row Remap Table: per bank, up to `entriesPerBank` (source row ->
 * spare row) mappings backed by the fine-granularity spare bank.
 */
class RowRemapTable
{
  public:
    /**
     * @param num_banks Banks covered (64 per stack in the baseline).
     * @param entries_per_bank RRT entries per bank (4 in the paper).
     */
    RowRemapTable(u32 num_banks, u32 entries_per_bank = 4);

    /**
     * Install a mapping for (unit, source row). The unit is the
     * stack-global flattened (die, bank) ordinal.
     * @param spare_row Destination row in the fine spare bank.
     * @return false if the unit's entries are exhausted (the caller
     *         escalates to bank sparing, Section VII-C.3).
     */
    bool insert(UnitId unit, RowId source_row, RowId spare_row);

    /**
     * insert() that also reports *which* slot holds the mapping, so the
     * caller (ProtectedMetaStore) can shadow the entry word. nullopt on
     * exhaustion, exactly when insert() returns false.
     */
    std::optional<MetaSlotId> insertSlot(UnitId unit, RowId source_row,
                                         RowId spare_row);

    /** Drop the mapping in one slot (its protected record was lost);
     *  the slot becomes reusable. No-op on an invalid slot. */
    void eraseSlot(UnitId unit, MetaSlotId slot);

    /** Permanently retire one slot (dead SRAM cell): drops any mapping
     *  and excludes the slot from future insert() allocation. */
    void killSlot(UnitId unit, MetaSlotId slot);

    /** Redirection lookup; nullopt when the row is not remapped. */
    std::optional<RowId> lookup(UnitId unit, RowId row) const;

    /** Entries in use for one unit. */
    u32 used(UnitId unit) const;

    /** Total SRAM bits: entries x (valid + 16b source + 16b dest). */
    u64 storageBits() const;

    void clear();

    /** Checkpoint the full table (dimensions + every entry). */
    void saveState(ByteSink &sink) const;

    /** Restore from a checkpoint; fatal if the stored dimensions do
     *  not match this table's configuration. */
    void loadState(ByteSource &src);

  private:
    struct Entry
    {
        bool valid = false;
        bool dead = false; ///< Slot retired by the meta-protection scrub.
        u32 sourceRow = 0;
        u32 spareRow = 0;

        friend void fields(auto &io, Of<Entry> auto &e)
        {
            io(e.valid, e.dead, e.sourceRow, e.spareRow);
        }
    };

    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self);

    Entry &slotAt(UnitId unit, MetaSlotId slot);

    u32 entriesPerBank_;
    std::vector<Entry> entries_; ///< num_banks x entriesPerBank_.
    u32 numBanks_;
};

/**
 * Bank Remap Table: `numEntries` (failed bank -> spare bank) mappings,
 * probed before the RRT on every access.
 */
class BankRemapTable
{
  public:
    explicit BankRemapTable(u32 num_entries = 2);

    /**
     * Decommission `failed_unit` (6-bit stack-global bank ordinal)
     * onto spare bank `spare_id`. @return false when all entries are
     * used.
     */
    bool insert(UnitId failed_unit, u32 spare_id);

    /** insert() that reports the slot holding the mapping; nullopt on
     *  exhaustion, exactly when insert() returns false. */
    std::optional<MetaSlotId> insertSlot(UnitId failed_unit, u32 spare_id);

    /** Drop the mapping in one slot; the slot becomes reusable. */
    void eraseSlot(MetaSlotId slot);

    /** Permanently retire one slot (dead SRAM cell). */
    void killSlot(MetaSlotId slot);

    /** Spare-bank id when the unit is remapped; nullopt otherwise. */
    std::optional<u32> lookup(UnitId unit) const;

    /** Slot holding the unit's mapping; nullopt when not remapped. */
    std::optional<MetaSlotId> slotOf(UnitId unit) const;

    u32 used() const;
    u64 storageBits() const;
    void clear();

    /** Checkpoint / restore every entry; fatal on a size mismatch. */
    void saveState(ByteSink &sink) const;
    void loadState(ByteSource &src);

  private:
    struct Entry
    {
        bool valid = false;
        bool dead = false; ///< Slot retired by the meta-protection scrub.
        u32 failedBank = 0;
        u32 spareId = 0;

        friend void fields(auto &io, Of<Entry> auto &e)
        {
            io(e.valid, e.dead, e.failedBank, e.spareId);
        }
    };

    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self);

    std::vector<Entry> entries_;
};

} // namespace citadel

#endif // CITADEL_CITADEL_REMAP_TABLES_H
