/**
 * @file
 * The parallel Monte Carlo determinism contract (DESIGN.md section 9):
 * for any thread count, MonteCarlo::run must produce a bit-identical
 * McResult — every field, including the per-class attribution map —
 * because per-trial seeds are counter-derived and shard merging is
 * integer-exact. Pins the seed-7 results as constants, and also
 * unit-tests the worker pool itself and the RasScheme::clone()
 * semantics the engine relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "citadel/citadel.h"
#include "common/kernels.h"
#include "common/thread_pool.h"
#include "faults/monte_carlo.h"

namespace citadel {
namespace {

void
expectIdentical(const McResult &a, const McResult &b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.failuresByYear, b.failuresByYear);
    EXPECT_EQ(a.failuresByClass, b.failuresByClass);
    EXPECT_DOUBLE_EQ(a.meanFaultsPerTrial, b.meanFaultsPerTrial);
}

std::vector<unsigned>
threadCountsUnderTest()
{
    // 1 exercises the serial path, 2 and 7 force uneven sharding (7 is
    // deliberately coprime to typical chunk sizes), plus whatever the
    // host really has.
    return {1u, 2u, 7u,
            std::max(1u, std::thread::hardware_concurrency())};
}

TEST(MonteCarloParallel, NoProtectionBitIdenticalAcrossThreadCounts)
{
    SystemConfig cfg;
    MonteCarlo mc(cfg);
    NoProtection scheme;
    for (u64 seed : {1ull, 42ull, 0xFEEDull}) {
        const McResult serial = mc.run(scheme, 3000, seed, 1);
        for (unsigned t : threadCountsUnderTest())
            expectIdentical(serial, mc.run(scheme, 3000, seed, t));
    }
}

TEST(MonteCarloParallel, FullCitadelBitIdenticalAcrossThreadCounts)
{
    // The stateful path: TSV-SWAP budgets + DDS remap tables + 3DP,
    // with TSV faults enabled so absorb()/onScrub() state matters.
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    MonteCarlo mc(cfg);
    auto scheme = makeCitadel();
    const McResult serial = mc.run(*scheme, 1500, 9, 1);
    for (unsigned t : threadCountsUnderTest())
        expectIdentical(serial, mc.run(*scheme, 1500, 9, t));
}

TEST(MonteCarloParallel, BaselineSchemesBitIdenticalAtSevenThreads)
{
    SystemConfig cfg;
    cfg.tsvDeviceFit = 140.0;
    MonteCarlo mc(cfg);
    const SchemePtr schemes[] = {
        makeParityOnly(3),
        makeSymbolBaseline(StripingMode::SameBank),
        makeBchBaseline(),
        makeRaid5Baseline(),
    };
    for (const SchemePtr &s : schemes) {
        const McResult serial = mc.run(*s, 1200, 5, 1);
        expectIdentical(serial, mc.run(*s, 1200, 5, 7));
    }
}

TEST(MonteCarloParallel, EnvDefaultMatchesExplicitSerial)
{
    // threads=0 resolves CITADEL_THREADS/hardware; whatever it picks
    // must not change the numbers.
    SystemConfig cfg;
    MonteCarlo mc(cfg);
    NoProtection scheme;
    expectIdentical(mc.run(scheme, 2000, 99, 1),
                    mc.run(scheme, 2000, 99, 0));
}

TEST(MonteCarloParallel, MoreThreadsThanTrials)
{
    SystemConfig cfg;
    MonteCarlo mc(cfg);
    NoProtection scheme;
    const McResult serial = mc.run(scheme, 3, 17, 1);
    expectIdentical(serial, mc.run(scheme, 3, 17, 64));
    const McResult empty = mc.run(scheme, 0, 17, 4);
    EXPECT_EQ(empty.trials, 0u);
    EXPECT_EQ(empty.failures, 0u);
    EXPECT_DOUBLE_EQ(empty.meanFaultsPerTrial, 0.0);
}

TEST(MonteCarloParallel, CloneBehavesLikeOriginal)
{
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    MonteCarlo mc(cfg);
    const SchemePtr originals[] = {
        makeCitadel(),
        makeParityOnly(2, /*tsv_swap=*/true),
        makeSymbolBaseline(StripingMode::AcrossChannels),
    };
    for (const SchemePtr &s : originals) {
        const SchemePtr copy = s->clone();
        EXPECT_EQ(copy->name(), s->name());
        expectIdentical(mc.run(*s, 800, 3, 1), mc.run(*copy, 800, 3, 1));
    }
}

TEST(MonteCarloParallel, RepeatedParallelRunsAreStable)
{
    SystemConfig cfg;
    MonteCarlo mc(cfg);
    NoProtection scheme;
    const McResult first = mc.run(scheme, 2500, 11, 4);
    for (int i = 0; i < 3; ++i)
        expectIdentical(first, mc.run(scheme, 2500, 11, 4));
}

TEST(MonteCarloParallel, BitIdenticalAcrossForcedKernelModes)
{
    // The dispatch contract (DESIGN.md section 14): kernels are
    // value-pure over the same bytes, so forcing any dispatch path —
    // crossed with any thread count — must leave every McResult field
    // untouched. This is the end-to-end proof backing the per-kernel
    // byte-equivalence suite in test_kernels.cc.
    const KernelMode saved = activeKernelMode();
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    MonteCarlo mc(cfg);
    auto scheme = makeCitadel();

    setKernelMode(KernelMode::Scalar);
    const McResult reference = mc.run(*scheme, 1500, 13, 1);
    for (const KernelMode mode :
         {KernelMode::Scalar, KernelMode::Vector, KernelMode::Auto}) {
        setKernelMode(mode);
        for (unsigned t : {1u, 4u})
            expectIdentical(reference, mc.run(*scheme, 1500, 13, t));
    }
    setKernelMode(saved);
}

// ---- Pinned results -------------------------------------------------
//
// Seed 7, 20000 trials at the pessimistic TSV rate, pinned as
// constants: any change to the sampler's draw stream, the trial loop,
// the per-trial seed mix or the shard merge shows up here even when
// serial and parallel drift together. Full Citadel survives every
// lifetime, so Same-Bank SSC — which fails through every fault class —
// pins the scrub, attribution and by-year bookkeeping.

constexpr u64 kPinSeed = 7;
constexpr u64 kPinTrials = 20000;
/** MonteCarlo's per-trial seed mix, part of the determinism contract. */
constexpr u64 kPinSeedMix = 0xA24BAED4963EE407ull;
/** Bit pattern of meanFaultsPerTrial (the same lifetimes feed every
 *  scheme): pinned exactly, not to a tolerance. */
constexpr u64 kPinMeanFaultsBits = 0x3fe42eb1c432ca58ull;

struct Pin
{
    const char *name;
    SchemePtr (*make)();
    u64 failures;
    std::vector<u64> failuresByYear;
    std::map<FaultClass, u64> failuresByClass;
};

const std::vector<Pin> &
pins()
{
    static const std::vector<Pin> kPins = {
        {"citadel", [] { return makeCitadel(); }, 0,
         {0, 0, 0, 0, 0, 0, 0}, {}},
        {"same-bank ssc",
         [] { return makeSymbolBaseline(StripingMode::SameBank); }, 5455,
         {927, 1781, 2606, 3383, 4130, 4789, 5455},
         {{FaultClass::Bit, 2},
          {FaultClass::Word, 230},
          {FaultClass::Column, 228},
          {FaultClass::Row, 556},
          {FaultClass::SubArray, 418},
          {FaultClass::Bank, 1069},
          {FaultClass::Channel, 48},
          {FaultClass::DataTsv, 2681},
          {FaultClass::AddrTsvRow, 188},
          {FaultClass::AddrTsvBank, 35}}},
    };
    return kPins;
}

SystemConfig
pinnedConfig()
{
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    return cfg;
}

void
expectPinned(const Pin &pin, const McResult &r)
{
    SCOPED_TRACE(pin.name);
    EXPECT_EQ(r.trials, kPinTrials);
    EXPECT_EQ(r.failures, pin.failures);
    EXPECT_EQ(r.failuresByYear, pin.failuresByYear);
    EXPECT_EQ(r.failuresByClass, pin.failuresByClass);
    EXPECT_EQ(std::bit_cast<u64>(r.meanFaultsPerTrial), kPinMeanFaultsBits)
        << r.meanFaultsPerTrial;
}

TEST(MonteCarloParallel, PinnedResultsAtOneAndFourThreads)
{
    const MonteCarlo mc(pinnedConfig());
    for (const Pin &pin : pins()) {
        const SchemePtr scheme = pin.make();
        for (unsigned t : {1u, 4u})
            expectPinned(pin, mc.run(*scheme, kPinTrials, kPinSeed, t));
    }
}

/**
 * MonteCarlo::run's result rebuilt one trial at a time through the
 * public one-generator sampler and runTrial, with the engine's
 * bookkeeping.
 */
McResult
publicApiReplay(const MonteCarlo &mc, RasScheme &scheme, u64 trials,
                u64 seed)
{
    const SystemConfig &cfg = mc.config();
    const FaultInjector injector(cfg);
    const u32 years =
        static_cast<u32>(std::ceil(cfg.lifetimeHours / kHoursPerYear));
    std::vector<Fault> events;
    std::vector<Fault> active;
    McResult r;
    r.trials = trials;
    r.failuresByYear.assign(years, 0);
    u64 faults = 0;
    for (u64 t = 0; t < trials; ++t) {
        Rng rng(seed ^ (kPinSeedMix * (t + 1)));
        injector.sampleLifetime(rng, events);
        faults += events.size();
        FaultClass trigger = FaultClass::Bit;
        const double at = mc.runTrial(scheme, events, &trigger, active);
        if (at < 0.0)
            continue;
        ++r.failures;
        ++r.failuresByClass[trigger];
        const u32 year = std::min(
            years - 1, static_cast<u32>(std::floor(at / kHoursPerYear)));
        for (u32 y = year; y < years; ++y)
            ++r.failuresByYear[y];
    }
    r.meanFaultsPerTrial =
        trials ? static_cast<double>(faults) / static_cast<double>(trials)
               : 0.0;
    return r;
}

TEST(MonteCarloParallel, PublicApiReplayReproducesPinnedResults)
{
    // The same lifetimes replayed one trial at a time through the
    // public sampler and trial calls, with the engine's bookkeeping.
    const MonteCarlo mc(pinnedConfig());
    for (const Pin &pin : pins()) {
        const SchemePtr scheme = pin.make();
        expectPinned(pin, publicApiReplay(mc, *scheme, kPinTrials, kPinSeed));
    }
}

TEST(MonteCarloParallel, LaneRemaindersMatchPublicApiReplay)
{
    // run() samples kLanes trials at a time and the last one to
    // kLanes - 1 of a range one at a time; every split of a trial
    // count into lanes and remainder, serial and sharded, must give
    // the replay's result bit for bit: remainders 1 and kLanes - 1
    // alone, one lane group plus one trial, and 512 groups plus three,
    // which leave three at one thread and in the last of the chunks
    // spread over four threads.
    constexpr u64 kLanes = FaultInjector::kLanes;
    const MonteCarlo mc(pinnedConfig());
    for (const Pin &pin : pins()) {
        SCOPED_TRACE(pin.name);
        const SchemePtr scheme = pin.make();
        for (const u64 trials :
             {u64{1}, kLanes - 1, kLanes + 1, 512 * kLanes + 3}) {
            const McResult want =
                publicApiReplay(mc, *scheme, trials, kPinSeed);
            for (unsigned t : {1u, 4u}) {
                SCOPED_TRACE(testing::Message() << trials << " trials, "
                                                << t << " threads");
                const McResult got = mc.run(*scheme, trials, kPinSeed, t);
                expectIdentical(want, got);
                EXPECT_EQ(std::bit_cast<u64>(got.meanFaultsPerTrial),
                          std::bit_cast<u64>(want.meanFaultsPerTrial));
            }
        }
    }
}

// ---- ThreadPool unit tests -----------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    constexpr u64 kItems = 10007; // prime: never divides evenly
    std::vector<std::atomic<u32>> hits(kItems);
    pool.parallelFor(kItems, 1, [&](u64 begin, u64 end, unsigned) {
        for (u64 i = begin; i < end; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (u64 i = 0; i < kItems; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ThreadPoolTest, RunOnWorkersRunsEachWorkerOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<u32>> ran(3);
    pool.runOnWorkers([&](unsigned w) {
        ASSERT_LT(w, 3u);
        ran[w].fetch_add(1);
    });
    for (unsigned w = 0; w < 3; ++w)
        EXPECT_EQ(ran[w].load(), 1u);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs)
{
    ThreadPool pool(2);
    std::atomic<u64> sum{0};
    for (int round = 0; round < 5; ++round)
        pool.parallelFor(100, 10, [&](u64 begin, u64 end, unsigned) {
            for (u64 i = begin; i < end; ++i)
                sum.fetch_add(i, std::memory_order_relaxed);
        });
    EXPECT_EQ(sum.load(), 5ull * (99ull * 100ull / 2));
}

TEST(ThreadPoolTest, SingleWorkerAndEmptyRangeAreFine)
{
    ThreadPool pool(1);
    std::atomic<u64> count{0};
    pool.parallelFor(0, 1, [&](u64, u64, unsigned) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0u);
    pool.parallelFor(5, 100, [&](u64 begin, u64 end, unsigned) {
        count.fetch_add(end - begin);
    });
    EXPECT_EQ(count.load(), 5u);
}

} // namespace
} // namespace citadel
