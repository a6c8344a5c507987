/**
 * @file
 * The benchmark's four workloads, one per way a user drives this
 * repository:
 *
 *   mc_paper      Monte Carlo reliability (Fig 18: Citadel vs SSC)
 *   timing_suite  timing simulator over all 38 profiles (Figs 15/16)
 *   ras_live      live RAS datapath on an aged device (demand path)
 *   fleet_serve   fleet request path under chaos, cut by a checkpoint
 *
 * A workload runs in fixed-size units whose inputs come only from the
 * seed, so every unit of one seed has the same simulated outputs (its
 * digest). Timed runs repeat units; traced runs record spans around
 * each call into a library layer and report the per-layer metrics of
 * layerCatalog().
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "ras/live_datapath.h"
#include "sim/system_sim.h"
#include "trace.h"

namespace perfbench {

using citadel::u64;

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one unit of a workload did. */
struct UnitResult
{
    double setupS = 0.0; ///< Construction before the first timed call.
    double runS = 0.0;   ///< Inside the timed calls.
    double cpuS = 0.0;   ///< Process CPU seconds during the timed calls.
    double work = 0.0;   ///< Work done by the timed calls (workUnit()).
    u64 digest = 0;      ///< Hash of every simulated output.
    u64 attempted = 0;   ///< Operations or output checks attempted.
    u64 failed = 0;      ///< Of those, failed.
    std::vector<std::string> problems; ///< Failed output checks.

    /** Workload-specific end-to-end figures, e.g. fleet latency. */
    std::vector<Metric> e2e;
    /** Per-layer metrics; filled only when the tracer is enabled. */
    std::vector<Metric> layers;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** What `UnitResult::work` counts (lifetimes, instructions...). */
    virtual const char *workUnit() const = 0;

    /** Worker threads the workload's thread pool uses (1 = none). */
    virtual unsigned threads() const = 0;

    /** Run one unit. Spans are recorded iff `tracer` is enabled. */
    virtual UnitResult runUnit(Tracer &tracer) = 0;

    /**
     * Traced runs only: re-execute or cross-check the unit that
     * produced `unit` to split it by layer where the timed calls
     * cannot be split from outside, adding metrics and problems.
     */
    virtual void explain(Tracer &tracer, UnitResult &unit)
    {
        (void)tracer;
        (void)unit;
    }
};

/** The workload called `name`, or nullptr if there is none. Thread
 *  pools (mc_paper's) use every CPU the process may run on. */
std::unique_ptr<Workload> makeWorkload(const std::string &name, u64 seed);

const std::vector<std::string> &workloadNames();

/** Every per-layer metric (name, unit) a traced run reports; layers a
 *  workload does not run report 0. */
const std::vector<std::pair<std::string, std::string>> &layerCatalog();

// Inputs of ras_live, shared with the tests.

/** Corrected reads per ras_live unit below this fail the unit: the
 *  workload exists to load the demand-correction path. */
constexpr u64 kRasLiveCeFloor = 1000;

/** Scenarios per ras_live unit, one per bank of the tiny stack: in
 *  scenario k bank k is the one corrected on every hit, so a unit's
 *  correction load does not hinge on the bank a seed picks. */
constexpr citadel::u32 kRasLiveScenarios = 4;

citadel::SimConfig rasLiveSimConfig(u64 seed);
const citadel::BenchmarkProfile &rasLiveProfile();

/** Schedule the aged-device fault script of one ras_live scenario: a
 *  row fault (corrected, then row-spared), two bank faults that use up
 *  both spare banks, then a bank fault on bank `scenario` that is
 *  corrected on every hit. */
void scheduleRasLiveFaults(citadel::LiveRasDatapath &dp, u64 seed,
                           citadel::u32 scenario);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
