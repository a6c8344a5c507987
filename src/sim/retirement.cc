#include "sim/retirement.h"

#include "common/log.h"

namespace citadel {

namespace {

/** The coordinates a packed key names. Every bit of a key belongs to
 *  one field and the stack field takes all high bits, so a stray bit
 *  reads as an out-of-range coordinate. */
struct KeyFields
{
    u64 stack = 0;
    u64 channel = 0;
    u64 bank = 0;
    u64 row = 0;
};

KeyFields
rowFields(u64 key)
{
    return {key >> 48, (key >> 40) & 0xFF, (key >> 32) & 0xFF,
            key & 0xFFFFFFFFull};
}

KeyFields
bankFields(u64 key)
{
    return {key >> 16, (key >> 8) & 0xFF, key & 0xFF, 0};
}

KeyFields
chanFields(u64 key)
{
    return {key >> 8, key & 0xFF, 0, 0};
}

bool
inGeometry(const StackGeometry &g, const KeyFields &f)
{
    return f.stack < g.stacks && f.channel < g.channelsPerStack &&
           f.bank < g.banksPerChannel && f.row < g.rowsPerBank;
}

} // namespace

RetirementMap::RetirementMap(const StackGeometry &geom) : geom_(geom)
{
    geom_.validate();
}

u64
RetirementMap::rowKey(StackId s, ChannelId c, BankId b, RowId r) const
{
    return (static_cast<u64>(s.value()) << 48) |
           (static_cast<u64>(c.value()) << 40) |
           (static_cast<u64>(b.value()) << 32) | r.value();
}

bool
RetirementMap::validBankKey(u64 key) const
{
    return inGeometry(geom_, bankFields(key));
}

u64
RetirementMap::bankKey(StackId s, ChannelId c, BankId b) const
{
    return (static_cast<u64>(s.value()) << 16) |
           (static_cast<u64>(c.value()) << 8) | b.value();
}

u64
RetirementMap::chanKey(StackId s, ChannelId c) const
{
    return (static_cast<u64>(s.value()) << 8) | c.value();
}

bool
RetirementMap::offlineRow(StackId stack, ChannelId channel, BankId bank,
                          RowId row)
{
    return offlineRows_.insert(rowKey(stack, channel, bank, row)).second;
}

bool
RetirementMap::retireBank(StackId stack, ChannelId channel, BankId bank)
{
    return retiredBanks_.insert(bankKey(stack, channel, bank)).second;
}

bool
RetirementMap::degradeChannel(StackId stack, ChannelId channel)
{
    return degradedChannels_.insert(chanKey(stack, channel)).second;
}

bool
RetirementMap::rowOffline(StackId stack, ChannelId channel, BankId bank,
                          RowId row) const
{
    return offlineRows_.count(rowKey(stack, channel, bank, row)) != 0;
}

bool
RetirementMap::bankRetired(StackId stack, ChannelId channel,
                           BankId bank) const
{
    return retiredBanks_.count(bankKey(stack, channel, bank)) != 0;
}

bool
RetirementMap::channelDegraded(StackId stack, ChannelId channel) const
{
    return degradedChannels_.count(chanKey(stack, channel)) != 0;
}

bool
RetirementMap::retired(const LineCoord &c) const
{
    return channelDegraded(c.stack, c.channel) ||
           bankRetired(c.stack, c.channel, c.bank) ||
           rowOffline(c.stack, c.channel, c.bank, c.row);
}

LineCoord
RetirementMap::route(const LineCoord &c) const
{
    if (!retired(c))
        return c;

    LineCoord r = c;
    const u32 banksPerStack = geom_.banksPerStack();
    const u32 flat =
        c.channel.value() * geom_.banksPerChannel + c.bank.value();

    // Nearest healthy bank in the same stack: same channel's banks
    // first, then wrap through the other channels.
    if (channelDegraded(r.stack, r.channel) ||
        bankRetired(r.stack, r.channel, r.bank)) {
        bool found = false;
        for (u32 k = 1; k < banksPerStack; ++k) {
            const u32 cand = (flat + k) % banksPerStack;
            const ChannelId ch{cand / geom_.banksPerChannel};
            const BankId bk{cand % geom_.banksPerChannel};
            if (channelDegraded(r.stack, ch) ||
                bankRetired(r.stack, ch, bk))
                continue;
            r.channel = ch;
            r.bank = bk;
            found = true;
            break;
        }
        if (!found)
            return c; // Every bank retired: nowhere left to steer.
    }

    // Nearest non-offlined row in the chosen bank.
    if (rowOffline(r.stack, r.channel, r.bank, r.row)) {
        for (u32 k = 1; k < geom_.rowsPerBank; ++k) {
            const RowId cand{(r.row.value() + k) % geom_.rowsPerBank};
            if (!rowOffline(r.stack, r.channel, r.bank, cand)) {
                r.row = cand;
                break;
            }
        }
    }
    return r;
}

u32
RetirementMap::retiredBanksIn(StackId stack, ChannelId channel) const
{
    u32 n = 0;
    for (u32 b = 0; b < geom_.banksPerChannel; ++b)
        n += bankRetired(stack, channel, BankId{b});
    return n;
}

u32
RetirementMap::offlinedRowsIn(StackId stack, ChannelId channel,
                              BankId bank) const
{
    const u64 lo = rowKey(stack, channel, bank, RowId{0});
    const u64 hi = lo + geom_.rowsPerBank;
    u32 n = 0;
    for (auto it = offlineRows_.lower_bound(lo);
         it != offlineRows_.end() && *it < hi; ++it)
        ++n;
    return n;
}

u64
RetirementMap::retiredLines() const
{
    u64 lines = 0;
    for (u64 key : degradedChannels_) {
        (void)key;
        lines += geom_.linesPerBank() * geom_.banksPerChannel;
    }
    for (u64 key : retiredBanks_) {
        const KeyFields f = bankFields(key);
        const StackId s{static_cast<u32>(f.stack)};
        const ChannelId c{static_cast<u32>(f.channel)};
        if (!channelDegraded(s, c))
            lines += geom_.linesPerBank();
    }
    for (u64 key : offlineRows_) {
        const KeyFields f = rowFields(key);
        const StackId s{static_cast<u32>(f.stack)};
        const ChannelId c{static_cast<u32>(f.channel)};
        const BankId b{static_cast<u32>(f.bank)};
        if (!channelDegraded(s, c) && !bankRetired(s, c, b))
            lines += geom_.linesPerRow();
    }
    return lines;
}

double
RetirementMap::capacityFraction() const
{
    const u64 total = geom_.totalLines();
    const u64 lost = retiredLines();
    return total == 0 ? 0.0
                      : static_cast<double>(total - lost) /
                            static_cast<double>(total);
}

void
RetirementMap::clear()
{
    offlineRows_.clear();
    retiredBanks_.clear();
    degradedChannels_.clear();
}

void
RetirementMap::fields(auto &io, auto &self)
{
    io(self.offlineRows_, self.retiredBanks_, self.degradedChannels_);
}

void
RetirementMap::saveState(ByteSink &sink) const
{
    Writer out(sink);
    fields(out, *this);
}

void
RetirementMap::loadState(ByteSource &src)
{
    Reader in(src);
    fields(in, *this);

    // Nothing steers around a key outside the geometry, but
    // retiredLines() would count it: capacityFraction() would resume
    // wrong, and wrap once the lost lines passed the total.
    const auto check = [&](const std::set<u64> &keys, const char *set,
                           KeyFields (*decode)(u64)) {
        for (const u64 key : keys)
            if (!inGeometry(geom_, decode(key)))
                fatal("RetirementMap: checkpoint %s key %#llx is outside "
                      "the geometry",
                      set, static_cast<unsigned long long>(key));
    };
    check(offlineRows_, "offlineRows", rowFields);
    check(retiredBanks_, "retiredBanks", bankFields);
    check(degradedChannels_, "degradedChannels", chanFields);
}

} // namespace citadel
