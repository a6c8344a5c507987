#include "ras/degradation.h"

#include "common/log.h"

namespace citadel {

DegradationLadder::DegradationLadder(const StackGeometry &geom,
                                     const DegradationOptions &opts)
    : opts_(opts), map_(geom)
{
    if (opts_.strikesPerBank == 0)
        fatal("DegradationLadder: strikesPerBank must be >= 1");
    if (opts_.pagesPerBankCap == 0)
        fatal("DegradationLadder: pagesPerBankCap must be >= 1");
    if (opts_.retiredBanksPerChannelCap == 0)
        fatal("DegradationLadder: retiredBanksPerChannelCap must be >= 1");
}

DegradationLadder::Action
DegradationLadder::retireBank(StackId stack, ChannelId channel,
                              BankId bank)
{
    Action act;
    if (map_.retireBank(stack, channel, bank))
        act.bankRetired = true;
    if (map_.retiredBanksIn(stack, channel) >=
            opts_.retiredBanksPerChannelCap &&
        map_.degradeChannel(stack, channel))
        act.channelDegraded = true;
    return act;
}

DegradationLadder::Action
DegradationLadder::onDue(const LineCoord &c)
{
    Action act;
    if (map_.offlineRow(c.stack, c.channel, c.bank, c.row))
        act.rowOfflined = true;
    if (map_.offlinedRowsIn(c.stack, c.channel, c.bank) >=
        opts_.pagesPerBankCap) {
        const Action up = retireBank(c.stack, c.channel, c.bank);
        act.bankRetired = up.bankRetired;
        act.channelDegraded = up.channelDegraded;
    }
    return act;
}

DegradationLadder::Action
DegradationLadder::onSparingDenied(StackId stack, ChannelId channel,
                                   BankId bank)
{
    return retireBank(stack, channel, bank);
}

DegradationLadder::Action
DegradationLadder::onRefault(StackId stack, ChannelId channel, BankId bank)
{
    Action act;
    const u32 n = ++strikes_[map_.bankKey(stack, channel, bank)];
    if (n >= opts_.strikesPerBank)
        act = retireBank(stack, channel, bank);
    return act;
}

DegradationLadder::Action
DegradationLadder::degradeChannel(StackId stack, ChannelId channel)
{
    Action act;
    if (map_.degradeChannel(stack, channel))
        act.channelDegraded = true;
    return act;
}

void
DegradationLadder::fields(auto &io, auto &self)
{
    io(self.map_, self.strikes_);
}

void
DegradationLadder::saveState(ByteSink &sink) const
{
    Writer out(sink);
    fields(out, *this);
}

void
DegradationLadder::loadState(ByteSource &src)
{
    Reader in(src);
    fields(in, *this);
    for (const auto &[key, n] : strikes_)
        if (!map_.validBankKey(key))
            fatal("DegradationLadder: checkpoint strikes key %#llx is "
                  "outside the geometry",
                  static_cast<unsigned long long>(key));
}

} // namespace citadel
