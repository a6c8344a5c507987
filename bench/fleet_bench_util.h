/**
 * @file
 * Helpers for the fleet perf bench (fleet_load_driver): wall-clock
 * campaign timing for throughput reporting, and the
 * transport/batch/threads verification grid that proves every cell
 * lands on the same fingerprint.
 *
 * The steady_clock readings here feed only Kops/s report fields —
 * never a seeded result. Bit-identity of the simulated numbers is what
 * the grid asserts, on integer fingerprints.
 */

#ifndef CITADEL_BENCH_FLEET_BENCH_UTIL_H
#define CITADEL_BENCH_FLEET_BENCH_UTIL_H

#include <chrono>
#include <string>
#include <vector>

#include "fleet/fleet_sim.h"

namespace citadel {
namespace fleet {

/** One timed campaign: the audited result plus its wall time. */
struct TimedRun
{
    FleetResult res;
    double seconds = 0.0;
};

inline TimedRun
timedCampaign(const FleetConfig &cfg)
{
    FleetCampaign campaign(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    TimedRun out;
    out.res = campaign.run();
    const auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    return out;
}

/** Completed operations (acked + failed) per wall second, in Kops/s. */
inline double
kopsPerSec(const FleetResult &res, double seconds)
{
    const double ops = static_cast<double>(res.totals.opsAcked +
                                           res.totals.opsFailed);
    return seconds > 0.0 ? ops / seconds / 1000.0 : 0.0;
}

inline bool
auditClean(const FleetResult &res)
{
    return res.lostAckedWrites == 0 && res.corruptAckedWrites == 0 &&
           res.divergences == 0;
}

/** One cell of the equivalence grid. */
struct GridCell
{
    TransportMode mode = TransportMode::Loopback;
    u32 batch = 1;
    unsigned threads = 1;
};

inline std::string
gridCellName(const GridCell &cell)
{
    // Built with append(): chained operator+ here trips GCC 12's
    // spurious -Wrestrict on the inlined char_traits copy (PR105651).
    std::string name(transportModeName(cell.mode));
    name.append(" b").append(std::to_string(cell.batch));
    name.append(" t").append(std::to_string(cell.threads));
    return name;
}

/**
 * The standard verification grid over a base config: Loopback vs
 * Socket, unbatched vs batch = `batch`, 1 vs `threads` worker
 * threads. Every cell must land on the same fingerprint with a clean
 * durability audit.
 */
inline std::vector<GridCell>
standardGrid(u32 batch, unsigned threads)
{
    std::vector<GridCell> cells{
        {TransportMode::Loopback, 1, 1},
        {TransportMode::Loopback, batch, threads},
        {TransportMode::Socket, 1, threads},
        {TransportMode::Socket, batch, 1},
    };
    return cells;
}

} // namespace fleet
} // namespace citadel

#endif // CITADEL_BENCH_FLEET_BENCH_UTIL_H
