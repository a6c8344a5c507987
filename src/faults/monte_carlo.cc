#include "faults/monte_carlo.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/log.h"
#include "common/thread_pool.h"

namespace citadel {

namespace {

/**
 * Per-trial seed mix (splitmix64 increment times an odd constant):
 * trial t always draws from Rng(seed ^ kSeedMix * (t + 1)) no matter
 * which worker executes it. Changing this changes every seeded
 * result in the repo — treat it as part of the determinism contract.
 */
constexpr u64 kSeedMix = 0xA24BAED4963EE407ull;

} // namespace

Proportion
McResult::probFailByYear(u32 years) const
{
    if (years == 0 || years > failuresByYear.size())
        panic("probFailByYear: year %u out of range", years);
    return wilson(failuresByYear[years - 1], trials);
}

MonteCarlo::MonteCarlo(const SystemConfig &cfg) : cfg_(cfg), injector_(cfg)
{
}

double
MonteCarlo::runTrial(RasScheme &scheme, std::span<const Fault> events,
                     FaultClass *trigger_class,
                     std::vector<Fault> &active) const
{
    scheme.reset(cfg_);
    active.clear();
    double last_scrub = 0.0;
    // Boundary handling is off the per-event path: the floor division
    // only runs once an event lands past the next scheduled scrub.
    double next_scrub = cfg_.scrubHours;

    for (const Fault &f : events) {
        // Process all scrub boundaries crossed since the last event: a
        // transient fault is cleared at the first boundary after its
        // arrival; sparing mechanisms retire permanent faults there too.
        if (f.timeHours >= next_scrub) {
            const double boundary =
                std::floor(f.timeHours / cfg_.scrubHours) * cfg_.scrubHours;
            if (boundary > last_scrub) {
                std::erase_if(active, [&](const Fault &a) {
                    return a.transient && a.timeHours < boundary;
                });
                scheme.onScrub(active);
                last_scrub = boundary;
            }
            next_scrub = last_scrub + cfg_.scrubHours;
        }

        if (scheme.absorb(f))
            continue;

        active.push_back(f);
        if (scheme.uncorrectable(active)) {
            if (trigger_class)
                *trigger_class = f.cls;
            return f.timeHours;
        }
    }
    return -1.0;
}

void
MonteCarlo::runRange(RasScheme &scheme, u64 begin, u64 end, u64 seed,
                     u32 years, Shard &shard, LaneEvents &events,
                     std::vector<Fault> &active) const
{
    auto trialRng = [seed](u64 t) {
        return Rng(seed ^ (kSeedMix * (t + 1)));
    };
    auto execute = [&](const std::vector<Fault> &lifetime) {
        shard.totalFaults += lifetime.size();
        FaultClass trigger = FaultClass::Bit;
        const double fail_at = runTrial(scheme, lifetime, &trigger, active);
        if (fail_at >= 0.0) {
            ++shard.failures;
            ++shard.failuresByClass[trigger];
            const u32 year = std::min(
                years - 1,
                static_cast<u32>(std::floor(fail_at / kHoursPerYear)));
            for (u32 y = year; y < years; ++y)
                ++shard.failuresByYear[y];
        }
    };
    constexpr unsigned kLanes = FaultInjector::kLanes;
    std::array<Rng, kLanes> rngs;
    u64 t = begin;
    for (; end - t >= kLanes; t += kLanes) {
        for (unsigned l = 0; l < kLanes; ++l)
            rngs[l] = trialRng(t + l);
        injector_.sampleLifetime(rngs, events);
        for (const std::vector<Fault> &lifetime : events)
            execute(lifetime);
    }
    for (; t < end; ++t) {
        Rng rng = trialRng(t);
        injector_.sampleLifetime(rng, events[0]);
        execute(events[0]);
    }
}

McResult
MonteCarlo::run(RasScheme &scheme, u64 trials, u64 seed,
                unsigned threads) const
{
    McResult res;
    res.trials = trials;
    const u32 years =
        static_cast<u32>(std::ceil(cfg_.lifetimeHours / kHoursPerYear));
    res.failuresByYear.assign(years, 0);

    const unsigned want = threads == 0 ? citadelThreads() : threads;
    const unsigned nthreads = static_cast<unsigned>(
        std::min<u64>(want, std::max<u64>(1, trials)));

    std::vector<Shard> shards;
    if (nthreads <= 1) {
        // Legacy serial path: runs on the caller's scheme in place
        // (no clone needed) with scratch reuse across trials.
        shards.resize(1);
        shards[0].failuresByYear.assign(years, 0);
        LaneEvents events;
        std::vector<Fault> active;
        runRange(scheme, 0, trials, seed, years, shards[0], events, active);
    } else {
        // Shard the trial counter over per-worker scheme clones.
        // Chunks are handed out dynamically; because trial t's seed
        // and the shard merge are both order-independent, any
        // chunk-to-worker assignment yields bit-identical results.
        //
        // TSA audit (DESIGN.md section 13): no CITADEL_GUARDED_BY
        // fields here by design. Worker w writes only shards[w] and
        // its own locals; the sole shared mutable object is `next`,
        // a std::atomic claim counter. The merge below runs after
        // runOnWorkers() returns, which is the joining barrier.
        ThreadPool pool(nthreads);
        shards.resize(pool.size());
        // A multiple of the sampler's lane count, so only a run's last
        // chunk can leave trials for the one-lane path.
        const u64 lanes = FaultInjector::kLanes;
        const u64 chunk =
            (std::min<u64>(1024, trials / (pool.size() * 8ull) + 1) +
             lanes - 1) /
            lanes * lanes;
        std::atomic<u64> next{0};
        pool.runOnWorkers([&](unsigned worker) {
            Shard &shard = shards[worker];
            shard.failuresByYear.assign(years, 0);
            const SchemePtr local = scheme.clone();
            LaneEvents events;
            std::vector<Fault> active;
            for (;;) {
                const u64 begin =
                    next.fetch_add(chunk, std::memory_order_relaxed);
                if (begin >= trials)
                    break;
                runRange(*local, begin, std::min(begin + chunk, trials),
                         seed, years, shard, events, active);
            }
        });
    }

    u64 total_faults = 0;
    for (const Shard &shard : shards) {
        res.failures += shard.failures;
        total_faults += shard.totalFaults;
        for (u32 y = 0; y < years; ++y)
            res.failuresByYear[y] += shard.failuresByYear[y];
        for (const auto &[cls, count] : shard.failuresByClass)
            res.failuresByClass[cls] += count;
    }
    res.meanFaultsPerTrial =
        trials ? static_cast<double>(total_faults) /
                     static_cast<double>(trials)
               : 0.0;
    return res;
}

} // namespace citadel
