/**
 * @file
 * Differential tests for the event-driven stepping contract and the
 * parallel suite runner (DESIGN.md section 10): event stepping must be
 * bit-identical to the cycle-by-cycle oracle for every striping/RAS
 * configuration -- including with a live RAS datapath attached -- and
 * runSuiteParallel must reproduce runSuite exactly for any thread
 * count.
 *
 * Both stepping modes share the FR-FCFS pick, so a scheduler change
 * that moves them alike passes the differential check. The cycle-mode
 * results are therefore also pinned: cycle count plus a digest of
 * every SimResult field, captured from the per-cycle rescanning
 * scheduler the wake bound replaced.
 */

#include <gtest/gtest.h>

#include <thread>

#include "bench_util.h"
#include "common/serialize.h"
#include "fault_builders.h"
#include "ras/live_datapath.h"
#include "sim/system_sim.h"

namespace citadel {
namespace {

using namespace testing_helpers;
using bench::identicalResults;

/** FNV-1a over every field of a run (bench::resultWords). */
u64
resultDigest(const SimResult &r)
{
    ByteSink sink;
    for (const u64 w : bench::resultWords(r))
        sink.putU64(w);
    return fnv1a(sink.bytes());
}

struct Pin
{
    u64 cycles;
    u64 digest;
};

/** Cycle-mode results of the sweep below, in its loop order
 *  (benchmark, then striping mode, then RAS traffic). */
constexpr Pin kSweepPins[27] = {
    {4413, 0xe1e8393a44c0fec2ull},  {5782, 0xa3628614234cb53aull},
    {5373, 0x3d3af81c8213ae56ull},  {15498, 0x78b654e1ad7b19a0ull},
    {23144, 0x98acb3c7411f0a4eull}, {21179, 0x5be76f87ac13dab9ull},
    {13075, 0x43fa88630eee6804ull}, {21072, 0x50ee891f64010a7cull},
    {19405, 0x4dbbe72f7afc366aull}, {2500, 0x81ab754eec485136ull},
    {2500, 0x75ff72365156aeb5ull},  {2500, 0xd0d7afabd7dc031cull},
    {2500, 0x0ef27cdc09d606d2ull},  {2500, 0x60413283445bd7beull},
    {2500, 0x689b225d85e0b5d8ull},  {2500, 0x8f4d481debee8f00ull},
    {2500, 0x2cfad7ae39278ef0ull},  {2500, 0x6e6d550a96064e7cull},
    {2921, 0xa4200fdc3dfc36bbull},  {3541, 0xe353b96f19d354edull},
    {3400, 0x6762e6086b999953ull},  {7530, 0x489419d449a61529ull},
    {12487, 0xe6740824413d8db0ull}, {10873, 0x9ebb7dadcc04894eull},
    {4760, 0x3a978ab9a9c11d0full},  {9800, 0x8d4c28ed92598f56ull},
    {8236, 0x60e368ec70df2b95ull},
};

/** Cycle-mode result of the live-RAS run (runWithRas). */
constexpr Pin kLiveRasPin = {16374, 0xee010f03dee18cbbull};

SimResult
runStepped(const char *bench, StripingMode mode, RasTraffic ras,
           SimStepping stepping)
{
    SimConfig cfg;
    cfg.striping = mode;
    cfg.ras = ras;
    cfg.stepping = stepping;
    cfg.insnsPerCore = 20'000;
    cfg.seed = 13;
    SystemSim sim(cfg, findBenchmark(bench));
    return sim.run();
}

TEST(SimStepping, EventMatchesCycleAcrossConfigSweep)
{
    std::size_t i = 0;
    for (const char *bench : {"mcf", "povray", "milc"}) {
        for (StripingMode mode :
             {StripingMode::SameBank, StripingMode::AcrossBanks,
              StripingMode::AcrossChannels}) {
            for (RasTraffic ras :
                 {RasTraffic::None, RasTraffic::ThreeDPCached,
                  RasTraffic::ThreeDPUncached}) {
                const SimResult cyc =
                    runStepped(bench, mode, ras, SimStepping::Cycle);
                const SimResult evt =
                    runStepped(bench, mode, ras, SimStepping::Event);
                EXPECT_TRUE(identicalResults(cyc, evt))
                    << bench << " mode=" << static_cast<int>(mode)
                    << " ras=" << static_cast<int>(ras)
                    << " cycles " << cyc.cycles << " vs " << evt.cycles;
                // Event stepping may only ever skip idle cycles, so
                // reported cycle counts must agree exactly.
                EXPECT_EQ(cyc.cycles, evt.cycles);
                EXPECT_EQ(cyc.cycles, kSweepPins[i].cycles) << bench;
                EXPECT_EQ(resultDigest(cyc), kSweepPins[i].digest) << bench;
                ++i;
            }
        }
    }
}

/** tiny geometry + live datapath, one fresh hook per run. */
SimResult
runWithRas(SimStepping stepping, RasCounters *counters_out)
{
    SimConfig cfg;
    cfg.geom = StackGeometry::tiny();
    cfg.llcBytes = 1 << 14;
    cfg.cores = 2;
    cfg.insnsPerCore = 30'000;
    cfg.ras = RasTraffic::ThreeDPCached;
    cfg.stepping = stepping;
    cfg.seed = 9;

    LiveRasOptions opts;
    opts.scrubCycles = 4096; // compressed scrub fires mid-run
    LiveRasDatapath dp(cfg, opts);
    dp.scheduleFault(bankFault(0, 0, 0), 500);
    dp.scheduleFault(rowFault(0, 1, 1, 3), 2500);

    SystemSim sim(cfg, findBenchmark("mcf"));
    sim.attachRas(&dp);
    const SimResult res = sim.run();
    *counters_out = dp.counters();
    return res;
}

TEST(SimStepping, EventMatchesCycleWithLiveRasAttached)
{
    // The RAS hook's nextEventCycle must keep fault materialization
    // and scrub timestamps exact, so the whole correction history --
    // not just the cycle count -- is reproduced under skipping.
    RasCounters cyc_c, evt_c;
    const SimResult cyc = runWithRas(SimStepping::Cycle, &cyc_c);
    const SimResult evt = runWithRas(SimStepping::Event, &evt_c);

    EXPECT_TRUE(identicalResults(cyc, evt))
        << "cycles " << cyc.cycles << " vs " << evt.cycles;
    EXPECT_EQ(cyc.cycles, kLiveRasPin.cycles);
    EXPECT_EQ(resultDigest(cyc), kLiveRasPin.digest);
    EXPECT_EQ(cyc_c.demandReads, evt_c.demandReads);
    EXPECT_EQ(cyc_c.ce, evt_c.ce);
    EXPECT_EQ(cyc_c.due, evt_c.due);
    EXPECT_EQ(cyc_c.sdc, evt_c.sdc);
    EXPECT_EQ(cyc_c.retries, evt_c.retries);
    EXPECT_EQ(cyc_c.faultsInjected, evt_c.faultsInjected);
    EXPECT_EQ(cyc_c.parityGroupReads, evt_c.parityGroupReads);
    EXPECT_GT(cyc_c.ce, 0u); // the sweep actually exercised correction
}

TEST(SimStepping, ParallelSuiteMatchesSerialForAnyThreadCount)
{
    SimConfig base;
    base.llcBytes = 1 << 16; // small LLC: fast warmup, real writebacks
    base.insnsPerCore = 3'000;

    const auto serial =
        bench::runSuite(StripingMode::AcrossBanks,
                        RasTraffic::ThreeDPCached, base.insnsPerCore,
                        /*verbose=*/false, base);
    ASSERT_FALSE(serial.empty());

    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    for (unsigned threads : {1u, 2u, hw}) {
        const auto parallel = bench::runSuiteParallel(
            StripingMode::AcrossBanks, RasTraffic::ThreeDPCached,
            base.insnsPerCore, threads, base);
        ASSERT_EQ(parallel.size(), serial.size()) << threads;
        for (const auto &[name, r] : serial) {
            ASSERT_TRUE(parallel.count(name)) << name;
            EXPECT_TRUE(identicalResults(r, parallel.at(name)))
                << name << " with " << threads << " threads";
        }
    }
}

} // namespace
} // namespace citadel
