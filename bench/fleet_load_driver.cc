/**
 * @file
 * Fleet load driver: runs the memory-pool service campaign — client
 * retry engine, coordinator failover, N bit-true stack-server shards —
 * under deterministic chaos at production-shaped load, and proves on
 * every run that the result does not depend on the worker thread
 * count: a reduced copy of the campaign runs on 1 and 4 threads and
 * both cells must land on the same durability-audit fingerprint.
 *
 * The serving hot path is also measured: one run under overload is
 * timed, and the driver reports its Kops/s and Busy rejection count
 * next to the headline's Kops/s and acked-completion latency
 * percentiles in virtual ticks. The steady_clock readings feed only
 * those Kops/s report fields, never a seeded result; bit-identity of
 * the simulated numbers is what the grid asserts, on integer
 * fingerprints.
 *
 * Every CITADEL_FLEET_* knob, and CITADEL_SEED / CITADEL_THREADS, is
 * a row of the knob table (common/knobs.h, listed in README.md); a
 * typo'd value is rejected with a warning rather than silently
 * wedging a run. The fingerprint is identical for any thread count.
 *
 * Exit status is non-zero if any acknowledged write is lost or
 * corrupt, if any datapath's differential model diverges, or if any
 * grid cell's fingerprint differs from the rest.
 */

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "common/knobs.h"
#include "fleet/fleet_sim.h"

using namespace citadel;
using namespace citadel::fleet;

namespace {

/** One timed campaign: the audited result plus its wall time. */
struct TimedRun
{
    FleetResult res;
    double seconds = 0.0;
};

TimedRun
timedCampaign(FleetCampaign &campaign)
{
    const auto t0 = std::chrono::steady_clock::now();
    TimedRun out;
    out.res = campaign.run();
    const auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    return out;
}

/** Completed operations (acked + failed) per wall second, in Kops/s. */
double
kopsPerSec(const FleetResult &res, double seconds)
{
    const double ops = static_cast<double>(res.totals.opsAcked +
                                           res.totals.opsFailed);
    return seconds > 0.0 ? ops / seconds / 1000.0 : 0.0;
}

bool
auditClean(const FleetResult &res)
{
    return res.lostAckedWrites == 0 && res.corruptAckedWrites == 0 &&
           res.divergences == 0;
}

FleetConfig
configFromEnv()
{
    FleetConfig cfg = FleetConfig::demo();
    cfg.servers = static_cast<u32>(knobU64(Knob::FleetServers));
    cfg.ticks = knobU64(Knob::FleetTicks);
    cfg.users = knobU64(Knob::FleetUsers);
    cfg.keySpace = knobU64(Knob::FleetKeyspace);
    cfg.arrivalsPerTick = static_cast<u32>(knobU64(Knob::FleetArrivals));
    cfg.writeFraction = knobDouble(Knob::FleetWriteFrac);
    cfg.replication = static_cast<u32>(knobU64(Knob::FleetReplication));
    cfg.ackQuorum = static_cast<u32>(knobU64(Knob::FleetQuorum));
    cfg.server.queueCap = static_cast<u32>(knobU64(Knob::FleetQueueCap));
    cfg.traffic = knobText(Knob::FleetTrace);
    cfg.chaos.enabled = knobU64(Knob::FleetChaos) != 0;
    cfg.chaos.crashes = static_cast<u32>(knobU64(Knob::FleetCrashes));
    cfg.chaos.dropProb = knobDouble(Knob::FleetDropProb);
    // Elasticity: rejoin after crash/stall-eviction (restart delay is
    // fixed; the knob is the on/off switch) and hot-shard rebalance.
    if (knobU64(Knob::FleetJoin) != 0)
        cfg.chaos.restartAfterTicks = 192;
    cfg.coord.rebalanceEnabled = knobU64(Knob::FleetRebalance) != 0;
    cfg.server.calibrationInsns = knobU64(Knob::FleetCalibInsns);

    // Rebuild the FIT table from nominal so the env knob is an
    // absolute multiplier, not a multiplier on demo()'s default.
    cfg.server.faults.rates =
        FitTable::paper8Gb().scaledBy(knobDouble(Knob::FleetFitScale));
    cfg.seed = knobU64(Knob::Seed);
    return cfg;
}

void
printServers(const FleetResult &res)
{
    std::cout << "  srv state    served  rejected  DUE  CE    keys  "
                 "units/tick  capacity\n";
    for (std::size_t s = 0; s < res.servers.size(); ++s) {
        const ServerReport &r = res.servers[s];
        std::cout << "  " << std::setw(3) << s << " " << std::left
                  << std::setw(8) << serverStateName(r.state)
                  << std::right << std::setw(9) << r.served
                  << std::setw(9) << r.rejected << std::setw(5)
                  << r.dueReads << std::setw(5) << r.corrected
                  << std::setw(7) << r.kvKeys << std::setw(11)
                  << r.serviceUnits << std::setw(9) << std::fixed
                  << std::setprecision(3) << r.capacityFraction
                  << "\n";
    }
    std::cout.unsetf(std::ios::fixed);
}

/** A cheaper copy of the headline config for the equivalence grid:
 *  every cell reruns the full campaign, so cap the tick count. */
FleetConfig
gridConfig(const FleetConfig &cfg)
{
    FleetConfig out = cfg;
    out.traffic.clear(); // The grid varies threads, not the trace.
    out.ticks = std::min<u64>(cfg.ticks, 512);
    return out;
}

/**
 * Production-shaped config for the hot-path measurement: per-request
 * serving cost only shows up when each tick carries real load. Light
 * configs are dominated by the per-tick datapath step and the
 * SystemSim calibration slice, so the measurement floors the arrival
 * rate, widens the keyspace, and drops the calibration cost.
 */
FleetConfig
hotPathConfig(const FleetConfig &cfg)
{
    FleetConfig out = cfg;
    out.traffic.clear();
    out.ticks = std::min<u64>(cfg.ticks, 512);
    out.arrivalsPerTick = std::max<u32>(cfg.arrivalsPerTick, 256);
    out.keySpace = std::max<u64>(cfg.keySpace, 4096);
    out.server.calibrationInsns = 0;
    return out;
}

/** One-decimal fixed formatting without leaking stream state. */
std::string
fmt1(double v)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << v;
    return os.str();
}

} // namespace

int
main()
{
    const FleetConfig cfg = configFromEnv();

    // The banner names the length the campaign runs: a trace
    // (CITADEL_FLEET_TRACE) sets it in place of cfg.ticks.
    FleetCampaign headlineCampaign(cfg);
    std::cout << "fleet load driver: " << cfg.servers << " servers, "
              << headlineCampaign.totalTicks() << " ticks, replication "
              << cfg.replication
              << "/quorum " << cfg.ackQuorum << ", chaos "
              << (cfg.chaos.enabled ? "on" : "off")
              << (cfg.traffic.empty() ? "" : ", trace-replay") << "\n";

    // ---- Headline run: the requested config at full length ---------
    const TimedRun headline = timedCampaign(headlineCampaign);
    const FleetResult &res = headline.res;
    std::cout << res.summary() << "\n";
    printServers(res);
    std::cout << "headline: " << fmt1(kopsPerSec(res, headline.seconds))
              << " Kops/s, p50/p99 " << res.p50LatencyTicks << "/"
              << res.p99LatencyTicks << " ticks\n";

    bool ok = true;
    if (!auditClean(res)) {
        std::cout << "FAIL: headline audit lost " << res.lostAckedWrites
                  << " / corrupt " << res.corruptAckedWrites
                  << " acked writes, divergences " << res.divergences
                  << "\n";
        ok = false;
    }
    if (res.totals.opsAcked == 0) {
        std::cout << "FAIL: service acknowledged nothing\n";
        ok = false;
    }

    // ---- Elasticity: checkpoint/resume proof -----------------------
    // Re-run the headline campaign, cut it at the requested tick,
    // checkpoint, resume into a fresh campaign, and demand the
    // resumed fingerprint match the uninterrupted headline run.
    const u64 ckptTick = knobU64(Knob::FleetCheckpoint);
    if (ckptTick > 0) {
        FleetCampaign first(cfg);
        const u64 cut = std::min(ckptTick, first.totalTicks() - 1);
        first.advanceTo(cut);
        ByteSink sink;
        first.saveState(sink);
        FleetCampaign second(cfg);
        ByteSource src(sink.bytes());
        second.loadState(src);
        const FleetResult resumed = second.finish();
        std::cout << "checkpoint: cut tick " << cut << ", state "
                  << sink.bytes().size()
                  << " bytes, resumed fingerprint " << std::hex
                  << resumed.fingerprint << std::dec << "\n";
        if (resumed.fingerprint != res.fingerprint) {
            std::cout << "FAIL: resumed campaign fingerprint differs "
                         "from the uninterrupted run\n";
            ok = false;
        }
        if (resumed.totals.resumes != 1) {
            std::cout << "FAIL: resumed campaign counted "
                      << resumed.totals.resumes << " resumes\n";
            ok = false;
        }
    }

    // ---- Hot-path measurement -------------------------------------
    // One timed run at a production-shaped arrival rate. The config
    // overloads the inboxes, so its Busy count shows the overload
    // ordering path ran.
    const FleetConfig hot = hotPathConfig(cfg);
    FleetCampaign hotCampaign(hot);
    const TimedRun hotRun = timedCampaign(hotCampaign);
    std::cout << "hot path (" << hot.arrivalsPerTick << " arrivals/tick): "
              << fmt1(kopsPerSec(hotRun.res, hotRun.seconds))
              << " Kops/s, busy " << hotRun.res.totals.busyRejections
              << "\n";

    // ---- Equivalence grid: {1, 4 threads} ---------------------------
    // Both cells must land on the same durability-audit fingerprint;
    // a mismatch means the thread count changed behavior, not just
    // performance, and the run fails.
    const FleetConfig base = gridConfig(cfg);
    u64 refFingerprint = 0;
    bool haveRef = false;
    for (const unsigned threads : {1u, 4u}) {
        FleetConfig cellCfg = base;
        cellCfg.threads = threads;
        FleetCampaign campaign(cellCfg);
        const FleetResult r = campaign.run();
        // append(), not operator+: the latter trips GCC 12's spurious
        // -Wrestrict (GCC bug 105651).
        std::string cell("t");
        cell.append(std::to_string(threads));
        std::cout << "grid " << std::left << std::setw(10) << cell
                  << std::right << " fingerprint " << std::hex
                  << r.fingerprint << std::dec << "\n";
        if (!auditClean(r)) {
            std::cout << "FAIL: grid cell " << cell << " audit unclean\n";
            ok = false;
        }
        if (!haveRef) {
            refFingerprint = r.fingerprint;
            haveRef = true;
        } else if (r.fingerprint != refFingerprint) {
            std::cout << "FAIL: grid cell " << cell
                      << " fingerprint differs from the grid baseline\n";
            ok = false;
        }
    }

    if (ok)
        std::cout << "OK: deterministic chaos campaign survivable, "
                     "fingerprint-equivalent on 1 and 4 threads "
                     "(fingerprint 0x"
                  << std::hex << res.fingerprint << std::dec << ")\n";
    return ok ? 0 : 1;
}
