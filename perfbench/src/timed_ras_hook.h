/**
 * @file
 * Forwarding RasHook decorator that times every call into the wrapped
 * hook (the live RAS datapath) without changing what it returns, so a
 * decorated SystemSim run is bit-identical to an undecorated one.
 */

#ifndef PERFBENCH_TIMED_RAS_HOOK_H
#define PERFBENCH_TIMED_RAS_HOOK_H

#include "sim/ras_hook.h"
#include "trace.h"

namespace perfbench {

/** Call counts and host seconds of each RasHook callback. */
struct HookTimes
{
    struct Calls
    {
        citadel::u64 n = 0;
        double secs = 0.0;

        void add(Clock::time_point t0)
        {
            ++n;
            secs += seconds(t0, Clock::now());
        }
    };

    Calls ticks;
    Calls clean;
    Calls corrected;
    Calls uncorrectable;
    Calls nextEvent;

    /** Seconds inside onDemandRead. */
    double readSeconds() const
    {
        return clean.secs + corrected.secs + uncorrectable.secs;
    }

    /** Seconds inside the wrapped hook, all callbacks. */
    double hookSeconds() const
    {
        return readSeconds() + ticks.secs + nextEvent.secs;
    }
};

class TimedRasHook final : public citadel::RasHook
{
  public:
    /** Neither `inner` nor `times` is owned; both must outlive this
     *  decorator. Calls add to `times`. */
    TimedRasHook(citadel::RasHook &inner, HookTimes &times)
        : inner_(inner), times_(times)
    {
    }

    TimedRasHook(const TimedRasHook &) = delete;
    TimedRasHook &operator=(const TimedRasHook &) = delete;

    void tick(citadel::u64 cycle) override
    {
        const auto t0 = Clock::now();
        inner_.tick(cycle);
        times_.ticks.add(t0);
    }

    citadel::DemandOutcome onDemandRead(citadel::LineAddr line,
                                        citadel::u64 cycle) override
    {
        const auto t0 = Clock::now();
        citadel::DemandOutcome out = inner_.onDemandRead(line, cycle);
        switch (out.kind) {
          case citadel::DemandOutcome::Kind::Clean:
            times_.clean.add(t0);
            break;
          case citadel::DemandOutcome::Kind::Corrected:
            times_.corrected.add(t0);
            break;
          case citadel::DemandOutcome::Kind::Uncorrectable:
            times_.uncorrectable.add(t0);
            break;
        }
        return out;
    }

    citadel::u64 nextEventCycle(citadel::u64 now) const override
    {
        const auto t0 = Clock::now();
        const citadel::u64 next = inner_.nextEventCycle(now);
        times_.nextEvent.add(t0);
        return next;
    }

    const citadel::RetirementMap *retirementMap() const override
    {
        return inner_.retirementMap();
    }

  private:
    citadel::RasHook &inner_;
    HookTimes &times_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_RAS_HOOK_H
