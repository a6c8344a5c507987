/**
 * @file
 * Retired-region map: the sim-side face of the degradation ladder.
 *
 * When the RAS layer runs out of DDS spares (or a region keeps
 * re-faulting), it stops repairing and starts *retiring*: a row is
 * offlined (the OS-page-offline analogue), a bank is decommissioned
 * outright, a channel is degraded. The system keeps running at reduced
 * capacity; demand traffic that would land in a retired region is
 * steered to a deterministic healthy location by MemorySystem's
 * enqueue path.
 *
 * This class lives in src/sim (not src/ras) because MemorySystem must
 * consult it on every access and the dependency arrow points ras ->
 * sim. The RAS layer owns the only mutable instance and exposes it
 * via RasHook::retirementMap().
 *
 * Steering is a *timing and capacity* model: the replacement location
 * stands in for wherever the OS re-homed the page, chosen
 * deterministically so runs are reproducible. Data-level aliasing is
 * not modeled here -- bit-true storage stays in the ras layer, which
 * drops faults contained in retired regions from both the bit-true
 * and the analytic model before they can disagree.
 */

#ifndef CITADEL_SIM_RETIREMENT_H
#define CITADEL_SIM_RETIREMENT_H

#include <set>

#include "common/serialize.h"
#include "stack/geometry.h"

namespace citadel {

/** Which rows, banks and channels have been taken out of service. */
class RetirementMap
{
  public:
    explicit RetirementMap(const StackGeometry &geom);

    /** Offline one row (page). @return true if newly offlined. */
    bool offlineRow(StackId stack, ChannelId channel, BankId bank,
                    RowId row);

    /** Decommission one bank. @return true if newly retired. */
    bool retireBank(StackId stack, ChannelId channel, BankId bank);

    /** Degrade one whole channel. @return true if newly degraded. */
    bool degradeChannel(StackId stack, ChannelId channel);

    bool rowOffline(StackId stack, ChannelId channel, BankId bank,
                    RowId row) const;
    bool bankRetired(StackId stack, ChannelId channel, BankId bank) const;
    bool channelDegraded(StackId stack, ChannelId channel) const;

    /** Is this coordinate inside any retired region? */
    bool retired(const LineCoord &c) const;

    /**
     * Deterministic healthy stand-in for a retired coordinate: the
     * nearest non-retired bank in the same stack (banks first, then
     * channels, wrapping), then the nearest non-offlined row in it.
     * Returns `c` unchanged when it is healthy, and also when *every*
     * bank of the stack is retired (nowhere left to steer).
     */
    LineCoord route(const LineCoord &c) const;

    bool empty() const
    {
        return offlineRows_.empty() && retiredBanks_.empty() &&
               degradedChannels_.empty();
    }

    /** Retired banks within one channel (ladder escalation input). */
    u32 retiredBanksIn(StackId stack, ChannelId channel) const;

    /** Offlined rows within one bank (page-cap escalation input). */
    u32 offlinedRowsIn(StackId stack, ChannelId channel,
                       BankId bank) const;

    /** Capacity lost, in cache lines (regions counted once: offlined
     *  rows inside retired banks, and retired banks inside degraded
     *  channels, do not double-count). */
    u64 retiredLines() const;

    /** Usable fraction of total capacity remaining, in [0, 1]. */
    double capacityFraction() const;

    void clear();

    /** Packed (stack, channel, bank) key, as retired banks are stored
     *  (and as the ladder keys its strike counts). */
    u64 bankKey(StackId s, ChannelId c, BankId b) const;

    /** Does a packed bank key name a bank of this geometry? */
    bool validBankKey(u64 key) const;

    void saveState(ByteSink &sink) const;

    /** Restores the saved sets; a key naming a stack, channel, bank or
     *  row outside the geometry is fatal. */
    void loadState(ByteSource &src);

  private:
    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self);

    StackGeometry geom_;

    // Ordered sets so iteration (serialization, fingerprints) is
    // deterministic. Keys pack (stack, channel, bank[, row]) with
    // byte-aligned fields; counts are small (ladder actions, not
    // per-line state).
    std::set<u64> offlineRows_;
    std::set<u64> retiredBanks_;
    std::set<u64> degradedChannels_;

    u64 rowKey(StackId s, ChannelId c, BankId b, RowId r) const;
    u64 chanKey(StackId s, ChannelId c) const;
};

} // namespace citadel

#endif // CITADEL_SIM_RETIREMENT_H
