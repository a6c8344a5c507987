#include "stack/address.h"

#include <algorithm>
#include <bit>

#include "common/log.h"

namespace citadel {

const char *
stripingModeName(StripingMode mode)
{
    switch (mode) {
      case StripingMode::SameBank:
        return "Same-Bank";
      case StripingMode::AcrossBanks:
        return "Across-Banks";
      case StripingMode::AcrossChannels:
        return "Across-Channels";
    }
    return "?";
}

namespace {

u32
bitsFor(u64 n)
{
    return n <= 1 ? 0 : static_cast<u32>(std::bit_width(n - 1));
}

} // namespace

AddressMap::AddressMap(const StackGeometry &geom) : geom_(geom)
{
    geom_.validate();
    chBits_ = bitsFor(geom_.channelsPerStack);
    bankBits_ = bitsFor(geom_.banksPerChannel);
    const u32 col_bits = bitsFor(geom_.linesPerRow());
    colLoBits_ = std::min(2u, col_bits);
    colHiBits_ = col_bits - colLoBits_;
    stackBits_ = bitsFor(geom_.stacks);
    rowBits_ = bitsFor(geom_.rowsPerBank);
}

LineCoord
AddressMap::lineToCoord(LineAddr line) const
{
    if (line >= parityBase())
        panic("lineToCoord: address %llu out of range",
              static_cast<unsigned long long>(line.value()));
    LineCoord c;
    u64 v = line.value();
    const u32 col_lo = static_cast<u32>(v & ((1ull << colLoBits_) - 1));
    v >>= colLoBits_;
    c.channel = ChannelId{static_cast<u32>(v & ((1ull << chBits_) - 1))};
    v >>= chBits_;
    c.bank = BankId{static_cast<u32>(v & ((1ull << bankBits_) - 1))};
    v >>= bankBits_;
    const u32 col_hi = static_cast<u32>(v & ((1ull << colHiBits_) - 1));
    v >>= colHiBits_;
    c.stack = StackId{static_cast<u32>(v & ((1ull << stackBits_) - 1))};
    v >>= stackBits_;
    c.row = RowId{static_cast<u32>(v)};
    c.col = ColId{(col_hi << colLoBits_) | col_lo};
    return c;
}

LineAddr
AddressMap::coordToLine(const LineCoord &c) const
{
    const u32 col_lo = c.col.value() & ((1u << colLoBits_) - 1);
    const u32 col_hi = c.col.value() >> colLoBits_;
    u64 v = c.row.value();
    v = (v << stackBits_) | c.stack.value();
    v = (v << colHiBits_) | col_hi;
    v = (v << bankBits_) | c.bank.value();
    v = (v << chBits_) | c.channel.value();
    v = (v << colLoBits_) | col_lo;
    return LineAddr{v};
}

std::vector<LineCoord>
AddressMap::subRequests(const LineCoord &line, StripingMode mode) const
{
    std::vector<LineCoord> out;
    out.reserve(fanout(mode));
    forEachSubRequest(line, mode,
                      [&](const LineCoord &c) { out.push_back(c); });
    return out;
}

ParityGroupId
AddressMap::d1GroupOf(StackId stack, RowId row, ColId col) const
{
    return ParityGroupId{
        (static_cast<u64>(stack.value()) * geom_.rowsPerBank +
         row.value()) *
            geom_.linesPerRow() +
        col.value()};
}

ParityGroupId
AddressMap::d1Group(LineAddr data_line) const
{
    const LineCoord c = lineToCoord(data_line);
    return d1GroupOf(c.stack, c.row, c.col);
}

LineAddr
AddressMap::parityLineOf(ParityGroupId group) const
{
    return LineAddr{parityBase().value() + group.value()};
}

LineAddr
AddressMap::d1ParityLine(LineAddr data_line) const
{
    return parityLineOf(d1Group(data_line));
}

LineAddr
AddressMap::parityToPhysical(LineAddr line) const
{
    if (line < parityBase())
        return line;
    u64 idx = line.value() - parityBase().value();
    LineCoord c;
    c.col = ColId{static_cast<u32>(idx % geom_.linesPerRow())};
    idx /= geom_.linesPerRow();
    c.row = RowId{static_cast<u32>(idx % geom_.rowsPerBank)};
    c.stack = StackId{static_cast<u32>(idx / geom_.rowsPerBank)};
    c.channel = ChannelId{c.row.value() % geom_.channelsPerStack};
    c.bank = BankId{(c.row.value() / geom_.channelsPerStack) %
                    geom_.banksPerChannel};
    return coordToLine(c);
}

u32
AddressMap::fanout(StripingMode mode) const
{
    switch (mode) {
      case StripingMode::SameBank:
        return 1;
      case StripingMode::AcrossBanks:
        return geom_.banksPerChannel;
      case StripingMode::AcrossChannels:
        return geom_.channelsPerStack;
    }
    return 1;
}

} // namespace citadel
