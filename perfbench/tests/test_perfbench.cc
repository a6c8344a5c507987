/**
 * @file
 * Tests of the benchmark's own code: the percentile helper, the span
 * recorder, the host-speed reference, the timing RasHook decorator, and
 * each workload's stated
 * property on a seed that was not used while sizing the workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "context.h"
#include "host_speed.h"
#include "percentile.h"
#include "timed_ras_hook.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Seed kept out of every run used to size the workloads. */
constexpr u64 kHeldOutSeed = 424242;

double
metricValue(const std::vector<Metric> &metrics, const std::string &name)
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return m.value;
    ADD_FAILURE() << "no metric " << name;
    return 0.0;
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

} // namespace

TEST(Percentile, ReportsOnlyWithTenSamplesBeyond)
{
    // p99 of 1000 samples is rank 990: ten samples lie beyond it.
    ASSERT_TRUE(percentile(ramp(1000), 0.99).has_value());
    EXPECT_EQ(*percentile(ramp(1000), 0.99), 990.0);
    EXPECT_FALSE(percentile(ramp(999), 0.99).has_value());

    ASSERT_TRUE(percentile(ramp(20), 0.5).has_value());
    EXPECT_EQ(*percentile(ramp(20), 0.5), 10.0);
    EXPECT_FALSE(percentile(ramp(19), 0.5).has_value());

    EXPECT_FALSE(percentile({}, 0.5).has_value());
    EXPECT_FALSE(percentile(ramp(100), 1.0).has_value());
}

TEST(Percentile, IgnoresSampleOrder)
{
    std::vector<double> v = ramp(2000);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(percentile(v, 0.99), percentile(ramp(2000), 0.99));
}

TEST(Percentile, Median)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Tracer, RecordsParentsAndRootCover)
{
    Tracer tr(true);
    {
        auto outer = tr.span("outer");
        auto inner = tr.span("inner");
        tr.addAggregate("calls", 7, 0.5);
    }
    { auto second = tr.span("outer"); }
    const auto &r = tr.records();
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[0].parent, -1);
    EXPECT_EQ(r[1].parent, 0);
    EXPECT_EQ(r[2].parent, 1);
    EXPECT_EQ(r[3].parent, -1);
    EXPECT_EQ(r[2].calls, 7u);
    EXPECT_DOUBLE_EQ(r[2].durS, 0.5);
    EXPECT_DOUBLE_EQ(tr.total("outer"), r[0].durS + r[3].durS);
    EXPECT_DOUBLE_EQ(tr.rootSeconds(), r[0].durS + r[3].durS);
    EXPECT_GE(r[0].durS, r[1].durS);
}

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer tr(false);
    {
        auto s = tr.span("x");
        tr.addAggregate("y", 3, 1.0);
    }
    EXPECT_TRUE(tr.records().empty());
    EXPECT_EQ(tr.rootSeconds(), 0.0);
}

TEST(HostSpeed, ReferenceKernelIsDeterministic)
{
    HostSpeedProbe a;
    HostSpeedProbe b;
    EXPECT_GT(a.sample(), 0.0);
    EXPECT_GT(b.sample(), 0.0);
    EXPECT_EQ(a.hits(), b.hits());
    // The hot region gives hits, the wide one misses.
    EXPECT_GT(a.hits(), 0u);
    EXPECT_LT(a.hits(), 2 * kProbeSteps);
}

TEST(HostSpeed, ReferenceRateScalesEachUnitByItsSpeed)
{
    // 100 work in 1 s at speed 2 and 100 work in 2 s at speed 1: two
    // reference seconds each, so 50 work per reference second.
    EXPECT_DOUBLE_EQ(referenceRate({100.0, 100.0}, {1.0, 2.0}, {2.0, 1.0}),
                     50.0);
    // At speed 1 the reference rate is the plain rate.
    EXPECT_DOUBLE_EQ(referenceRate({30.0, 10.0}, {1.0, 1.0}, {1.0, 1.0}),
                     20.0);
    EXPECT_EQ(referenceRate({}, {}, {}), 0.0);
}

/** The decorator must not change what the datapath or the sim do. */
TEST(TimedRasHook, LeavesResultsBitIdentical)
{
    struct Run
    {
        citadel::SimResult sim;
        citadel::RasCounters ras;
        u64 fingerprint = 0;
        u64 hookCalls = 0;
    };
    const auto run = [](bool decorate) {
        citadel::SimConfig cfg = rasLiveSimConfig(kHeldOutSeed);
        cfg.insnsPerCore = 30'000;
        citadel::LiveRasOptions opts;
        opts.seed = kHeldOutSeed;
        citadel::LiveRasDatapath dp(cfg, opts);
        scheduleRasLiveFaults(dp, kHeldOutSeed, 0);
        citadel::SystemSim sim(cfg, rasLiveProfile());
        HookTimes times;
        TimedRasHook hook(dp, times);
        if (decorate)
            sim.attachRas(&hook);
        else
            sim.attachRas(&dp);
        Run r;
        r.sim = sim.run();
        r.ras = dp.counters();
        r.fingerprint = dp.stateFingerprint();
        r.hookCalls =
            times.clean.n + times.corrected.n + times.uncorrectable.n;
        return r;
    };
    const Run plain = run(false);
    const Run timed = run(true);

    EXPECT_EQ(plain.sim.cycles, timed.sim.cycles);
    EXPECT_EQ(plain.sim.insnsRetired, timed.sim.insnsRetired);
    EXPECT_EQ(std::memcmp(&plain.sim.mem, &timed.sim.mem,
                          sizeof(plain.sim.mem)),
              0);
    EXPECT_EQ(std::memcmp(&plain.sim.llc, &timed.sim.llc,
                          sizeof(plain.sim.llc)),
              0);
    EXPECT_EQ(plain.sim.power.totalW(), timed.sim.power.totalW());
    EXPECT_EQ(plain.sim.retiredLines, timed.sim.retiredLines);
    EXPECT_EQ(std::memcmp(&plain.ras, &timed.ras, sizeof(plain.ras)), 0);
    EXPECT_EQ(plain.fingerprint, timed.fingerprint);

    // It saw every demand read, and the fault script was exercised.
    EXPECT_EQ(plain.hookCalls, 0u);
    EXPECT_EQ(timed.hookCalls, timed.ras.demandReads);
    EXPECT_GT(timed.ras.ce, 0u);
}

class WorkloadProperty : public ::testing::TestWithParam<std::string>
{
};

/** Tracing must not change the simulated outputs, and every per-layer
 *  metric a workload reports must be in the catalog. */
TEST_P(WorkloadProperty, DigestIdenticalWithTracingOnAndOff)
{
    auto w = makeWorkload(GetParam(), kHeldOutSeed);
    ASSERT_TRUE(w);
    Tracer off(false);
    const UnitResult plain = w->runUnit(off);
    Tracer tr(true);
    UnitResult traced = w->runUnit(tr);
    w->explain(tr, traced);
    EXPECT_EQ(plain.digest, traced.digest);
    EXPECT_TRUE(plain.problems.empty());
    EXPECT_TRUE(traced.problems.empty())
        << (traced.problems.empty() ? "" : traced.problems[0]);
    EXPECT_TRUE(plain.layers.empty());

    std::set<std::string> catalog;
    for (const auto &[name, unit] : layerCatalog())
        catalog.insert(name);
    for (const Metric &m : traced.layers)
        EXPECT_TRUE(catalog.count(m.name)) << m.name;
    // Root spans cover the traced unit's wall time.
    EXPECT_GT(tr.rootSeconds(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadProperty,
                         ::testing::ValuesIn(workloadNames()));

TEST(HeldOutSeed, McPaperIsDominatedBySampling)
{
    auto w = makeWorkload("mc_paper", kHeldOutSeed);
    Tracer tr(true);
    UnitResult u = w->runUnit(tr);
    w->explain(tr, u);
    EXPECT_TRUE(u.problems.empty());
    EXPECT_GT(metricValue(u.layers, "faults.sample_share"), 0.5);
}

TEST(HeldOutSeed, RasLiveKeepsItsCorrectionLoad)
{
    auto w = makeWorkload("ras_live", kHeldOutSeed);
    Tracer tr(true);
    const UnitResult u = w->runUnit(tr);
    EXPECT_TRUE(u.problems.empty());
    EXPECT_GE(metricValue(u.layers, "ras.ce"),
              static_cast<double>(kRasLiveCeFloor));
    EXPECT_EQ(metricValue(u.layers, "ras.sdc"), 0.0);
    EXPECT_EQ(metricValue(u.layers, "ras.divergences"), 0.0);
    EXPECT_EQ(metricValue(u.layers, "ras.banks_spared"),
              2.0 * kRasLiveScenarios);
    EXPECT_GT(metricValue(u.layers, "ras.demand_read_share"), 0.5);
}

TEST(HeldOutSeed, FleetServeFailsNothingAndBarelyCorrects)
{
    auto w = makeWorkload("fleet_serve", kHeldOutSeed);
    Tracer tr(true);
    const UnitResult u = w->runUnit(tr);
    EXPECT_TRUE(u.problems.empty());
    EXPECT_GT(u.attempted, 0u);
    EXPECT_EQ(u.failed, 0u);
    EXPECT_LE(metricValue(u.layers, "fleet.device_corrected"), 10.0);
}
