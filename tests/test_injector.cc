/**
 * @file
 * Tests for the fault injector: arrival statistics match the FIT
 * rates, fault ranges are well-formed per class, TSV faults follow the
 * severity model, and the sampler's draw stream — one generator at a
 * time or eight lanes at once — matches a one-Rng::poisson-per-cell
 * reference fault for fault.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <vector>

#include "faults/injector.h"

namespace citadel {
namespace {

class InjectorTest : public ::testing::Test
{
  protected:
    SystemConfig cfg_;

    void
    SetUp() override
    {
        cfg_.geom = StackGeometry{};
    }
};

TEST_F(InjectorTest, ArrivalCountMatchesExpectation)
{
    cfg_.tsvDeviceFit = 0.0;
    FaultInjector inj(cfg_);
    Rng rng(1);
    double total = 0.0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t)
        total += static_cast<double>(inj.sampleLifetime(rng).size());

    // Expected: per-die FIT over 18 dies for 7 years.
    const double per_die =
        fitToPerHour(cfg_.rates.totalFit()) * cfg_.lifetimeHours;
    const double expected =
        per_die * cfg_.geom.stacks * (cfg_.geom.channelsPerStack + 1);
    EXPECT_NEAR(total / trials, expected, 0.05 * expected + 0.01);
}

TEST_F(InjectorTest, EventsAreTimeSorted)
{
    cfg_.tsvDeviceFit = 5000.0; // force plenty of events
    FaultInjector inj(cfg_);
    Rng rng(2);
    for (int t = 0; t < 200; ++t) {
        const auto ev = inj.sampleLifetime(rng);
        for (std::size_t i = 1; i < ev.size(); ++i)
            ASSERT_LE(ev[i - 1].timeHours, ev[i].timeHours);
        for (const Fault &f : ev) {
            ASSERT_GE(f.timeHours, 0.0);
            ASSERT_LE(f.timeHours, cfg_.lifetimeHours);
        }
    }
}

TEST_F(InjectorTest, FaultShapePerClass)
{
    FaultInjector inj(cfg_);
    Rng rng(3);
    const StackGeometry &g = cfg_.geom;

    const Fault bit =
        inj.makeFault(rng, FaultClass::Bit, StackId{0}, ChannelId{1}, true, 0.0);
    EXPECT_EQ(bit.rowsCovered(g), 1u);
    EXPECT_EQ(bit.banksCovered(g), 1u);
    EXPECT_EQ(bit.bitsPerLine(g), 1u);
    EXPECT_TRUE(bit.transient);

    const Fault word =
        inj.makeFault(rng, FaultClass::Word, StackId{0}, ChannelId{1}, false, 0.0);
    EXPECT_EQ(word.rowsCovered(g), 1u);
    EXPECT_EQ(word.bitsPerLine(g), 64u);

    const Fault col =
        inj.makeFault(rng, FaultClass::Column, StackId{0}, ChannelId{1}, false, 0.0);
    EXPECT_EQ(col.rowsCovered(g), g.rowsPerBank);
    EXPECT_EQ(col.banksCovered(g), 1u);
    EXPECT_EQ(col.col.mask, 0xFFFFFFFFu); // one line slot
    EXPECT_EQ(col.bitsPerLine(g), 512u);

    const Fault row =
        inj.makeFault(rng, FaultClass::Row, StackId{0}, ChannelId{1}, false, 0.0);
    EXPECT_EQ(row.rowsCovered(g), 1u);
    EXPECT_EQ(row.bitsPerLine(g), 512u);

    const Fault sub =
        inj.makeFault(rng, FaultClass::SubArray, StackId{0}, ChannelId{1}, false, 0.0);
    EXPECT_EQ(sub.rowsCovered(g), cfg_.subArrayRows);
    EXPECT_EQ(sub.banksCovered(g), 1u);

    const Fault bank =
        inj.makeFault(rng, FaultClass::Bank, StackId{0}, ChannelId{1}, false, 0.0);
    EXPECT_EQ(bank.rowsCovered(g), g.rowsPerBank);
    EXPECT_TRUE(bank.singleBank(g));

    const Fault chan =
        inj.makeFault(rng, FaultClass::Channel, StackId{0}, ChannelId{1}, false, 0.0);
    EXPECT_EQ(chan.banksCovered(g), g.banksPerChannel);
}

TEST_F(InjectorTest, TsvFaultsAreSevere)
{
    FaultInjector inj(cfg_);
    Rng rng(4);
    const StackGeometry &g = cfg_.geom;
    std::map<FaultClass, int> seen;
    for (int i = 0; i < 2000; ++i) {
        const Fault f = inj.makeTsvFault(rng, StackId{0}, 0.0);
        ASSERT_TRUE(f.fromTsv);
        ASSERT_FALSE(f.transient);
        ++seen[f.cls];
        switch (f.cls) {
          case FaultClass::DataTsv:
            // Two bits per line in every bank of the channel.
            EXPECT_EQ(f.bitsPerLine(g), 2u);
            EXPECT_EQ(f.banksCovered(g), g.banksPerChannel);
            break;
          case FaultClass::AddrTsvRow:
            EXPECT_EQ(f.rowsCovered(g), g.rowsPerBank / 2);
            EXPECT_EQ(f.banksCovered(g), g.banksPerChannel);
            break;
          case FaultClass::AddrTsvBank:
            EXPECT_EQ(f.banksCovered(g), g.banksPerChannel / 2);
            break;
          case FaultClass::Channel:
            EXPECT_EQ(f.banksCovered(g), g.banksPerChannel);
            EXPECT_EQ(f.rowsCovered(g), g.rowsPerBank);
            break;
          default:
            FAIL() << "unexpected TSV fault class";
        }
    }
    // Data TSVs outnumber address TSVs ~256:24.
    EXPECT_GT(seen[FaultClass::DataTsv], 1500);
    EXPECT_GT(seen[FaultClass::AddrTsvRow], 10);
}

TEST_F(InjectorTest, SubArrayFractionControlsMix)
{
    cfg_.subArrayFraction = 1.0;
    FaultInjector all_sub(cfg_);
    Rng rng(5);
    // With fraction 1.0 every bank-class fault materializes as the
    // SubArray class.
    int bank_count = 0;
    for (int t = 0; t < 300; ++t)
        for (const Fault &f : all_sub.sampleLifetime(rng))
            if (f.cls == FaultClass::Bank)
                ++bank_count;
    EXPECT_EQ(bank_count, 0);
}

TEST_F(InjectorTest, TransientPermanentMixFollowsRates)
{
    cfg_.tsvDeviceFit = 0.0;
    FaultInjector inj(cfg_);
    Rng rng(6);
    u64 transients = 0;
    u64 permanents = 0;
    for (int t = 0; t < 4000; ++t)
        for (const Fault &f : inj.sampleLifetime(rng))
            (f.transient ? transients : permanents)++;
    const FitTable &r = cfg_.rates;
    const double t_fit = r.bit.transientFit + r.word.transientFit +
                         r.column.transientFit + r.row.transientFit +
                         r.bank.transientFit;
    const double expect_frac = t_fit / r.totalFit();
    const double got_frac =
        static_cast<double>(transients) /
        static_cast<double>(transients + permanents);
    EXPECT_NEAR(got_frac, expect_frac, 0.02);
}

/**
 * The reference sampler sampleLifetime must reproduce draw for draw:
 * per stack, every die's [Bit, Word, Column, Row, Bank] x {transient,
 * permanent} cells, then the stack's TSV cell, each counted by one
 * Rng::poisson(lambda) call and materialized as time, Bank -> SubArray
 * split, location.
 */
void
referenceLifetime(const FaultInjector &inj, Rng &rng, std::vector<Fault> &out)
{
    const SystemConfig &cfg = inj.config();
    const FitTable &r = cfg.rates;
    const struct { FaultClass cls; const FitPair *fit; } classes[] = {
        {FaultClass::Bit, &r.bit},       {FaultClass::Word, &r.word},
        {FaultClass::Column, &r.column}, {FaultClass::Row, &r.row},
        {FaultClass::Bank, &r.bank},
    };
    auto count = [&](double fit) {
        return rng.poisson(fitToPerHour(fit) * cfg.lifetimeHours);
    };
    out.clear();
    for (u32 s = 0; s < cfg.geom.stacks; ++s) {
        for (u32 ch = 0; ch < cfg.diesPerStack(); ++ch) {
            for (const auto &c : classes) {
                for (const bool transient : {true, false}) {
                    const u64 n = count(transient ? c.fit->transientFit
                                                  : c.fit->permanentFit);
                    for (u64 i = 0; i < n; ++i) {
                        const double t =
                            rng.uniform(0.0, cfg.lifetimeHours);
                        FaultClass cls = c.cls;
                        if (cls == FaultClass::Bank &&
                            rng.chance(cfg.subArrayFraction))
                            cls = FaultClass::SubArray;
                        out.push_back(inj.makeFault(rng, cls, StackId{s},
                                                    ChannelId{ch},
                                                    transient, t));
                    }
                }
            }
        }
        const u64 n = count(cfg.tsvDeviceFit);
        for (u64 i = 0; i < n; ++i) {
            const double t = rng.uniform(0.0, cfg.lifetimeHours);
            out.push_back(inj.makeTsvFault(rng, StackId{s}, t));
        }
    }
    std::sort(out.begin(), out.end(), [](const Fault &a, const Fault &b) {
        return a.timeHours < b.timeHours;
    });
}

bool
sameFault(const Fault &a, const Fault &b)
{
    return a.stack == b.stack && a.channel == b.channel &&
           a.bank == b.bank && a.row == b.row && a.col == b.col &&
           a.bit == b.bit && a.cls == b.cls && a.transient == b.transient &&
           a.fromTsv == b.fromTsv &&
           std::bit_cast<u64>(a.timeHours) ==
               std::bit_cast<u64>(b.timeHours) &&
           a.tsvIndex == b.tsvIndex;
}

/** A sampled lifetime and its generator's end state agree with the
 *  reference's: every fault, their order and the state. */
::testing::AssertionResult
sameLifetime(const std::vector<Fault> &got, const Rng &gotRng,
             const std::vector<Fault> &want, const Rng &wantRng)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << got.size() << " faults, reference " << want.size();
    for (std::size_t i = 0; i < got.size(); ++i)
        if (!sameFault(got[i], want[i]))
            return ::testing::AssertionFailure()
                   << "fault " << i << " of " << got.size() << " differs";
    if (gotRng.saveState() != wantRng.saveState())
        return ::testing::AssertionFailure() << "Rng end state differs";
    return ::testing::AssertionSuccess();
}

using State = std::array<u64, 4>;
using LaneStates = std::array<State, FaultInjector::kLanes>;
using LaneEvents = std::array<std::vector<Fault>, FaultInjector::kLanes>;

/** The reference lifetime from `state`, with its generator. */
Rng
referenceFrom(const FaultInjector &inj, const State &state,
              std::vector<Fault> &want)
{
    Rng ref(0);
    ref.restoreState(state);
    referenceLifetime(inj, ref, want);
    return ref;
}

/** The one-generator sampler and the reference, both started from
 *  `state`, agree. `got` and `want` are reused across seeds. */
::testing::AssertionResult
matchesReference(const FaultInjector &inj, const State &state,
                 std::vector<Fault> &got, std::vector<Fault> &want)
{
    Rng fast(0);
    fast.restoreState(state);
    inj.sampleLifetime(fast, got);
    const Rng ref = referenceFrom(inj, state, want);
    return sameLifetime(got, fast, want, ref);
}

/** The lane sampler started from four states: each lane agrees with
 *  the reference started from its state. */
::testing::AssertionResult
lanesMatchReference(const FaultInjector &inj, const LaneStates &states,
                    LaneEvents &got, std::vector<Fault> &want)
{
    std::array<Rng, FaultInjector::kLanes> rngs;
    for (unsigned l = 0; l < FaultInjector::kLanes; ++l)
        rngs[l].restoreState(states[l]);
    inj.sampleLifetime(rngs, got);
    for (unsigned l = 0; l < FaultInjector::kLanes; ++l) {
        const Rng ref = referenceFrom(inj, states[l], want);
        ::testing::AssertionResult same =
            sameLifetime(got[l], rngs[l], want, ref);
        if (!same)
            return same << " (lane " << l << ")";
    }
    return ::testing::AssertionSuccess();
}

/** Every counter-derived seed in [0, seeds) matches the reference,
 *  once through the one-generator sampler and once as a lane of the
 *  lane sampler (seeds in groups of eight); returns the faults sampled
 *  in total. */
u64
expectStreamIdentity(const SystemConfig &cfg, u64 salt, u64 seeds)
{
    const FaultInjector inj(cfg);
    std::vector<Fault> got;
    std::vector<Fault> want;
    LaneEvents lanes;
    u64 faults = 0;
    for (u64 i = 0; i + FaultInjector::kLanes <= seeds;
         i += FaultInjector::kLanes) {
        LaneStates states;
        for (unsigned l = 0; l < FaultInjector::kLanes; ++l) {
            states[l] = Rng(mix64(salt + i + l)).saveState();
            EXPECT_TRUE(matchesReference(inj, states[l], got, want))
                << "seed " << i + l;
            faults += got.size();
        }
        EXPECT_TRUE(lanesMatchReference(inj, states, lanes, want))
            << "seeds " << i << ".." << i + FaultInjector::kLanes - 1;
        if (::testing::Test::HasFailure())
            break;
    }
    return faults;
}

constexpr u64 kOracleSeeds = 10000;

TEST_F(InjectorTest, StreamMatchesReferenceAtPaperRates)
{
    cfg_.tsvDeviceFit = 1430.0;
    EXPECT_GT(expectStreamIdentity(cfg_, 0x1000, kOracleSeeds), 0u);
}

TEST_F(InjectorTest, StreamMatchesReferenceWithZeroRateCells)
{
    // Zero-rate cells must consume no draw at all, as poisson(0) does.
    cfg_.rates.word = FitPair{0.0, 0.0};
    cfg_.tsvDeviceFit = 0.0;
    expectStreamIdentity(cfg_, 0x2000, kOracleSeeds);
}

TEST_F(InjectorTest, StreamMatchesReferenceWithMultiHitCells)
{
    // ~630 faults per lifetime, every cell still on the Knuth path
    // (lambda up to ~9): multi-hit cells, several lanes hitting the
    // same cell, and ~95 Bank-class faults per lifetime for the
    // SubArray split. At x1e4 the largest cells
    // would leave Knuth for the normal path, which the next test
    // covers.
    cfg_.rates = cfg_.rates.scaledBy(1e3);
    cfg_.tsvDeviceFit = 1430.0 * 1e3;
    EXPECT_GT(expectStreamIdentity(cfg_, 0x3000, kOracleSeeds),
              kOracleSeeds * 500);
}

TEST_F(InjectorTest, StreamMatchesReferenceOnNormalApproximationPath)
{
    cfg_.rates.row.permanentFit = 7e5; // lambda ~43 per die
    ASSERT_GE(fitToPerHour(cfg_.rates.row.permanentFit) * cfg_.lifetimeHours,
              30.0);
    cfg_.tsvDeviceFit = 1430.0;
    expectStreamIdentity(cfg_, 0x4000, kOracleSeeds);
}

/** Inverse of an odd `a` modulo 2^64 (Newton iteration). */
constexpr u64
inverseOdd(u64 a)
{
    u64 x = a;
    for (int i = 0; i < 6; ++i)
        x *= 2 - a * x;
    return x;
}

TEST_F(InjectorTest, FirstFactorEqualToLimitDrawsZero)
{
    // Knuth stops once the product is <= exp(-lambda), so a first
    // uniform exactly at the limit means zero faults and no further
    // draw. Craft a generator state whose first uniform is exactly the
    // first cell's limit (Bit, transient; in [0.5, 1) every double is a
    // multiple of 2^-53, so uniform() can return it).
    cfg_.tsvDeviceFit = 1430.0;
    const FaultInjector inj(cfg_);
    const double limit = std::exp(
        -fitToPerHour(cfg_.rates.bit.transientFit) * cfg_.lifetimeHours);
    ASSERT_GE(limit, 0.5);
    const u64 out = static_cast<u64>(limit * 0x1.0p53) << 11;
    // xoshiro256** outputs rotl(s1 * 5, 7) * 9; solve for s1.
    const u64 r = out * inverseOdd(9);
    std::array<u64, 4> state = Rng(7).saveState();
    state[1] = ((r >> 7) | (r << 57)) * inverseOdd(5);
    Rng probe(0);
    probe.restoreState(state);
    ASSERT_EQ(probe.uniform(), limit);

    std::vector<Fault> got;
    std::vector<Fault> want;
    EXPECT_TRUE(matchesReference(inj, state, got, want));
    // The same state as one lane of the lane sampler, beside lanes
    // that draw normally.
    LaneEvents lanes;
    const LaneStates states{Rng(1).saveState(), Rng(2).saveState(), state,
                            Rng(3).saveState()};
    EXPECT_TRUE(lanesMatchReference(inj, states, lanes, want));
}

TEST_F(InjectorTest, RejectsBadSubArrayConfig)
{
    cfg_.subArrayRows = 1000; // not a power of two
    EXPECT_DEATH(FaultInjector inj(cfg_), "power of two");
}

} // namespace
} // namespace citadel
