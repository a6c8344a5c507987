#include "citadel/remap_tables.h"

#include "common/log.h"

namespace citadel {

RowRemapTable::RowRemapTable(u32 num_banks, u32 entries_per_bank)
    : entriesPerBank_(entries_per_bank), numBanks_(num_banks)
{
    if (num_banks == 0 || entries_per_bank == 0)
        fatal("RowRemapTable: zero-sized table");
    entries_.resize(static_cast<std::size_t>(num_banks) *
                    entries_per_bank);
}

bool
RowRemapTable::insert(UnitId unit, RowId source_row, RowId spare_row)
{
    return insertSlot(unit, source_row, spare_row).has_value();
}

std::optional<MetaSlotId>
RowRemapTable::insertSlot(UnitId unit, RowId source_row, RowId spare_row)
{
    if (unit.value() >= numBanks_)
        panic("RRT: unit %u out of range", unit.value());
    Entry *base = &entries_[static_cast<std::size_t>(unit.value()) *
                            entriesPerBank_];
    for (u32 e = 0; e < entriesPerBank_; ++e) {
        if (base[e].valid && base[e].sourceRow == source_row.value()) {
            base[e].spareRow = spare_row.value(); // refresh mapping
            return MetaSlotId{e};
        }
    }
    for (u32 e = 0; e < entriesPerBank_; ++e) {
        if (!base[e].valid && !base[e].dead) {
            base[e] = {true, false, source_row.value(), spare_row.value()};
            return MetaSlotId{e};
        }
    }
    return std::nullopt;
}

RowRemapTable::Entry &
RowRemapTable::slotAt(UnitId unit, MetaSlotId slot)
{
    if (unit.value() >= numBanks_ || slot.value() >= entriesPerBank_)
        panic("RRT: slot (%u, %u) out of range", unit.value(),
              slot.value());
    return entries_[static_cast<std::size_t>(unit.value()) *
                        entriesPerBank_ +
                    slot.value()];
}

void
RowRemapTable::eraseSlot(UnitId unit, MetaSlotId slot)
{
    Entry &e = slotAt(unit, slot);
    e.valid = false;
}

void
RowRemapTable::killSlot(UnitId unit, MetaSlotId slot)
{
    Entry &e = slotAt(unit, slot);
    e.valid = false;
    e.dead = true;
}

std::optional<RowId>
RowRemapTable::lookup(UnitId unit, RowId row) const
{
    if (unit.value() >= numBanks_)
        panic("RRT: unit %u out of range", unit.value());
    const Entry *base = &entries_[static_cast<std::size_t>(unit.value()) *
                                  entriesPerBank_];
    for (u32 e = 0; e < entriesPerBank_; ++e)
        if (base[e].valid && base[e].sourceRow == row.value())
            return RowId{base[e].spareRow};
    return std::nullopt;
}

u32
RowRemapTable::used(UnitId unit) const
{
    if (unit.value() >= numBanks_)
        panic("RRT: unit %u out of range", unit.value());
    const Entry *base = &entries_[static_cast<std::size_t>(unit.value()) *
                                  entriesPerBank_];
    u32 n = 0;
    for (u32 e = 0; e < entriesPerBank_; ++e)
        n += base[e].valid;
    return n;
}

u64
RowRemapTable::storageBits() const
{
    return static_cast<u64>(entries_.size()) * (1 + 16 + 16);
}

void
RowRemapTable::clear()
{
    for (auto &e : entries_)
        e = Entry{};
}

void
RowRemapTable::fields(auto &io, auto &self)
{
    io.expect(self.numBanks_, "RRT checkpoint bank count does not "
                              "match the configured table");
    io.expect(self.entriesPerBank_, "RRT checkpoint entries per bank do "
                                    "not match the configured table");
    io.fixed(self.entries_);
}

void
RowRemapTable::saveState(ByteSink &sink) const
{
    Writer out(sink);
    fields(out, *this);
}

void
RowRemapTable::loadState(ByteSource &src)
{
    Reader in(src);
    fields(in, *this);
}

BankRemapTable::BankRemapTable(u32 num_entries)
{
    if (num_entries == 0)
        fatal("BankRemapTable: zero-sized table");
    entries_.resize(num_entries);
}

bool
BankRemapTable::insert(UnitId failed_unit, u32 spare_id)
{
    return insertSlot(failed_unit, spare_id).has_value();
}

std::optional<MetaSlotId>
BankRemapTable::insertSlot(UnitId failed_unit, u32 spare_id)
{
    for (u32 i = 0; i < entries_.size(); ++i)
        if (entries_[i].valid &&
            entries_[i].failedBank == failed_unit.value())
            return MetaSlotId{i}; // already decommissioned
    for (u32 i = 0; i < entries_.size(); ++i) {
        Entry &e = entries_[i];
        if (!e.valid && !e.dead) {
            e = {true, false, failed_unit.value(), spare_id};
            return MetaSlotId{i};
        }
    }
    return std::nullopt;
}

void
BankRemapTable::eraseSlot(MetaSlotId slot)
{
    if (slot.value() >= entries_.size())
        panic("BRT: slot %u out of range", slot.value());
    entries_[slot.idx()].valid = false;
}

void
BankRemapTable::killSlot(MetaSlotId slot)
{
    if (slot.value() >= entries_.size())
        panic("BRT: slot %u out of range", slot.value());
    entries_[slot.idx()].valid = false;
    entries_[slot.idx()].dead = true;
}

std::optional<MetaSlotId>
BankRemapTable::slotOf(UnitId unit) const
{
    for (u32 i = 0; i < entries_.size(); ++i)
        if (entries_[i].valid &&
            entries_[i].failedBank == unit.value())
            return MetaSlotId{i};
    return std::nullopt;
}

std::optional<u32>
BankRemapTable::lookup(UnitId unit) const
{
    for (const auto &e : entries_)
        if (e.valid && e.failedBank == unit.value())
            return e.spareId;
    return std::nullopt;
}

u32
BankRemapTable::used() const
{
    u32 n = 0;
    for (const auto &e : entries_)
        n += e.valid;
    return n;
}

u64
BankRemapTable::storageBits() const
{
    return static_cast<u64>(entries_.size()) * (1 + 6 + 1);
}

void
BankRemapTable::clear()
{
    for (auto &e : entries_)
        e = Entry{};
}

void
BankRemapTable::fields(auto &io, auto &self)
{
    io.expect(static_cast<u32>(self.entries_.size()),
              "BRT checkpoint entry count does not match the configured "
              "table");
    io.fixed(self.entries_);
}

void
BankRemapTable::saveState(ByteSink &sink) const
{
    Writer out(sink);
    fields(out, *this);
}

void
BankRemapTable::loadState(ByteSource &src)
{
    Reader in(src);
    fields(in, *this);
}

} // namespace citadel
