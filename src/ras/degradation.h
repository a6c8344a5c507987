/**
 * @file
 * Degradation ladder: what Citadel does when repair stops working.
 *
 * The paper's pipeline ends at DDS sparing; a real deployment cannot
 * -- spare budgets exhaust, regions re-fault, and the machine must
 * keep running. The ladder turns repair failures into *capacity*
 * loss, escalating one rung at a time:
 *
 *   page offline   a DUE'd row is retired (the OS-page-offline
 *                  analogue); reads steer to a healthy stand-in;
 *   bank retire    triggered by SparingDenied on a bank-contained
 *                  fault, by a bank re-faulting `strikesPerBank`
 *                  times, or by `pagesPerBankCap` offlined rows
 *                  accumulating in one bank;
 *   channel degrade `retiredBanksPerChannelCap` retired banks in one
 *                  channel give the whole channel up.
 *
 * Retired regions live in a sim-side RetirementMap that MemorySystem
 * consults on every enqueue, so the timing simulator keeps running at
 * reduced capacity. The datapath drops faults wholly contained in a
 * retired region from the active set -- of BOTH the bit-true and the
 * analytic model -- so the no-overclaim differential invariant is
 * preserved across every rung.
 */

#ifndef CITADEL_RAS_DEGRADATION_H
#define CITADEL_RAS_DEGRADATION_H

#include <map>

#include "sim/retirement.h"

namespace citadel {

/** Ladder thresholds. Every DUE offlines its row (page). */
struct DegradationOptions
{
    /** Permanent single-bank fault arrivals before the bank is
     *  proactively retired (the "re-faulting region" trigger).
     *  test-only: tests reach the strike rung in two faults, or set
     *  100 to isolate spare exhaustion from it. */
    u32 strikesPerBank = 3;

    /** Offlined rows tolerated per bank before the whole bank is
     *  retired. test-only: tests reach the bank rung in two DUEs. */
    u32 pagesPerBankCap = 16;

    /** Retired banks tolerated per channel before the channel is
     *  degraded. test-only: tests reach the channel rung in one
     *  retired bank. */
    u32 retiredBanksPerChannelCap = 2;
};

/** Escalation state machine over a RetirementMap. */
class DegradationLadder
{
  public:
    /** Which rungs one event climbed (all false: no action). */
    struct Action
    {
        bool rowOfflined = false;
        bool bankRetired = false;
        bool channelDegraded = false;

        bool any() const
        {
            return rowOfflined || bankRetired || channelDegraded;
        }
    };

    DegradationLadder(const StackGeometry &geom,
                      const DegradationOptions &opts);

    /** A DUE was reported at `c`: offline its page, possibly
     *  escalate. */
    Action onDue(const LineCoord &c);

    /** DDS refused to spare a fault contained in this bank. */
    Action onSparingDenied(StackId stack, ChannelId channel, BankId bank);

    /** A permanent fault (re-)arrived in this bank; counts a strike. */
    Action onRefault(StackId stack, ChannelId channel, BankId bank);

    /** Degrade a channel directly (channel-granularity fault with no
     *  spare path left). */
    Action degradeChannel(StackId stack, ChannelId channel);

    RetirementMap &map() { return map_; }
    const RetirementMap &map() const { return map_; }

    const DegradationOptions &options() const { return opts_; }

    void saveState(ByteSink &sink) const;

    /** Restores the map and the strike counts; a key outside the
     *  geometry is fatal. */
    void loadState(ByteSource &src);

  private:
    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self);

    DegradationOptions opts_;
    RetirementMap map_;
    std::map<u64, u32> strikes_; ///< bank key -> permanent arrivals.

    /** Retire a bank and climb to channel degrade if over cap. */
    Action retireBank(StackId stack, ChannelId channel, BankId bank);
};

} // namespace citadel

#endif // CITADEL_RAS_DEGRADATION_H
