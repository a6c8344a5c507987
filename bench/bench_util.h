/**
 * @file
 * Shared helpers for the per-figure bench binaries: common scheme
 * construction and run loops for the timing benches, and paper-vs-
 * measured printing. Run sizes come from the CITADEL_TRIALS and
 * CITADEL_INSNS knobs (common/knobs.h).
 *
 * Every figure bench drives MonteCarlo::run, which shards trials over
 * a worker pool (common/thread_pool.h) and is bit-identical for any
 * thread count — so the whole suite parallelizes via CITADEL_THREADS
 * (default: all cores) with no per-binary changes and no change to
 * any seeded number a bench prints.
 */

#ifndef CITADEL_BENCH_BENCH_UTIL_H
#define CITADEL_BENCH_BENCH_UTIL_H

#include <bit>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "citadel/citadel.h"
#include "common/knobs.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "sim/system_sim.h"

namespace citadel {
namespace bench {

/** Format a probability with its 95% CI; "<x" when zero failures. */
inline std::string
probCell(const Proportion &p)
{
    if (p.successes == 0)
        return "<" + Table::prob(p.hi95) + " (0 fails)";
    return Table::prob(p.estimate);
}

/**
 * How many times more often `base` fails than `better`, with the log
 * 95% interval of that ratio: "1101.1x [918.5x, 1319.9x]". With no
 * failures on one side there is no interval, and the cell states the
 * one-sided bound that side's Wilson hi95 allows, labelled as a bound.
 */
inline std::string
ratioCell(const Proportion &base, const Proportion &better)
{
    auto times = [](double v) { return Table::num(v, 1) + "x"; };
    if (const auto r = ratioInterval(base, better))
        return times(r->ratio) + " [" + times(r->lo95) + ", " +
               times(r->hi95) + "]";
    if (base.successes == 0 && better.successes == 0)
        return "n/a (no failures on either side)";
    if (better.successes == 0)
        return ">" + times(base.estimate / better.hi95) +
               " (bound: 0 failures, Wilson hi95)";
    return "<" + times(base.hi95 / better.estimate) +
           " (bound: 0 baseline failures, Wilson hi95)";
}

/** One timing run of `profile` under (mode, ras), starting from the
 *  optional `base` config (striping/ras/budget overwritten). */
inline SimResult
runTiming(const BenchmarkProfile &profile, StripingMode mode,
          RasTraffic ras, u64 insns_per_core,
          const SimConfig &base = {})
{
    SimConfig cfg = base;
    cfg.striping = mode;
    cfg.ras = ras;
    cfg.insnsPerCore = insns_per_core;
    SystemSim sim(cfg, profile);
    return sim.run();
}

/** Every field of a timing run as one 64-bit word, doubles by their
 *  bit pattern (the runs are deterministic, so they match exactly). */
inline std::vector<u64>
resultWords(const SimResult &r)
{
    // Each field is one word: a field added to SimResult or its parts
    // changes the size and fails here until it is listed below.
    static_assert(sizeof(SimResult) == 23 * sizeof(u64));
    const MemCounters &m = r.mem;
    const LlcStats &l = r.llc;
    return {r.cycles,
            r.insnsRetired,
            m.activates,
            m.readBursts,
            m.writeBursts,
            m.rowHits,
            m.rowMisses,
            m.bytesRead,
            m.bytesWritten,
            m.rasReads,
            m.steeredReads,
            m.steeredWrites,
            l.dataFills,
            l.dirtyDataEvictions,
            l.parityProbes,
            l.parityHits,
            l.parityFills,
            l.dirtyParityEvictions,
            std::bit_cast<u64>(r.power.activateW),
            std::bit_cast<u64>(r.power.readWriteW),
            std::bit_cast<u64>(r.power.refreshW),
            r.retiredLines,
            std::bit_cast<u64>(r.capacityFraction)};
}

/** Bit-exact equality of two timing runs (every field). */
inline bool
identicalResults(const SimResult &a, const SimResult &b)
{
    return resultWords(a) == resultWords(b);
}

/** Timing results for every benchmark under one configuration, run
 *  serially on the calling thread. */
inline std::map<std::string, SimResult>
runSuite(StripingMode mode, RasTraffic ras, u64 insns_per_core,
         bool verbose = true, const SimConfig &base = {})
{
    std::map<std::string, SimResult> out;
    for (const auto &b : allBenchmarks()) {
        if (verbose)
            std::cerr << "  [" << stripingModeName(mode) << "/"
                      << static_cast<int>(ras) << "] " << b.name
                      << "...\n";
        out[b.name] = runTiming(b, mode, ras, insns_per_core, base);
    }
    return out;
}

/**
 * runSuite fanned over a worker pool. Each SystemSim run is fully
 * self-seeded (SimConfig::seed drives every stream) and writes only
 * its own index-addressed slot, so the result is bit-identical to
 * runSuite for any thread count.
 * @param threads Worker count; 0 resolves via CITADEL_THREADS.
 */
inline std::map<std::string, SimResult>
runSuiteParallel(StripingMode mode, RasTraffic ras, u64 insns_per_core,
                 unsigned threads = 0, const SimConfig &base = {})
{
    const auto &benches = allBenchmarks();
    std::vector<SimResult> results(benches.size());
    // TSA audit (DESIGN.md section 13): no CITADEL_GUARDED_BY fields
    // here by design. parallelFor partitions bench indices so slot
    // results[i] has exactly one writer, and the ordered fold into the
    // std::map happens after the pool's joining barrier.
    ThreadPool pool(threads);
    pool.parallelFor(
        benches.size(), 1, [&](u64 begin, u64 end, unsigned) {
            for (u64 i = begin; i < end; ++i)
                results[i] = runTiming(benches[i], mode, ras,
                                       insns_per_core, base);
        });
    std::map<std::string, SimResult> out;
    for (std::size_t i = 0; i < benches.size(); ++i)
        out[benches[i].name] = results[i];
    return out;
}

/** Geometric-mean ratio of a metric vs a baseline map. */
template <typename F>
double
gmeanRatio(const std::map<std::string, SimResult> &test,
           const std::map<std::string, SimResult> &base, F metric)
{
    std::vector<double> ratios;
    for (const auto &[name, r] : test)
        ratios.push_back(metric(r) / metric(base.at(name)));
    return geomean(ratios);
}

} // namespace bench
} // namespace citadel

#endif // CITADEL_BENCH_BENCH_UTIL_H
