/**
 * @file
 * Differential property tests between the analytic Monte Carlo
 * evaluator (MultiDimParityScheme) and the bit-true ParityEngine, over
 * randomized fault sets that include faults landing in the D1 parity
 * bank itself.
 *
 * Two properties, matching the models' granularities:
 *
 *  1. No overclaim (every trial): whenever the analytic model calls a
 *     fault set correctable, the byte-level reconstruction must restore
 *     the golden image. The analytic model peels whole fault ranges,
 *     so it may be *conservative* (uncorrectable verdict for a set the
 *     line-granularity peel recovers) — that direction is safe and
 *     expected; the reverse would invalidate every Monte Carlo figure.
 *
 *  2. Exact equivalence at line granularity: decomposing the same
 *     fault set into its constituent single-line faults removes the
 *     granularity gap, and then the two independently implemented
 *     peels must agree exactly, both directions.
 *
 * Plus injector edge cases (zero rates, minimal geometry) and
 * configuration-validation death tests.
 */

#include <gtest/gtest.h>

#include <limits>

#include "citadel/parity_engine.h"
#include "citadel/three_d_parity.h"
#include "common/rng.h"
#include "fault_builders.h"
#include "faults/injector.h"

namespace citadel {
namespace {

using namespace testing_helpers;

constexpr u32 kTrialsPerDim = 400; // x3 dims = 1200 fault sets

u32
pick(Rng &rng, u32 n)
{
    return static_cast<u32>(rng.below(n));
}

/** One random fault on the tiny geometry; ~30% hit the parity unit. */
Fault
randomFault(Rng &rng, const StackGeometry &g)
{
    const u32 rows = g.rowsPerBank;
    const u32 cols = g.linesPerRow();
    const u32 bits = g.bitsPerLine();
    const bool parity_unit = rng.uniform(0.0, 1.0) < 0.3;

    Fault f;
    if (parity_unit) {
        switch (pick(rng, 4)) {
          case 0:
            f = parityBitFault(g, 0, pick(rng, rows), pick(rng, cols),
                               pick(rng, bits));
            break;
          case 1:
            f = parityRowFault(g, 0, pick(rng, rows));
            break;
          case 2:
            f = parityUnitFault(g, FaultClass::Column, 0);
            f.col = DimSpec::exact(pick(rng, cols));
            break;
          default:
            f = parityUnitFault(g, FaultClass::Bank, 0);
            break;
        }
    } else {
        // Data faults may also land in the ECC die (channelsPerStack).
        const u32 ch = pick(rng, g.channelsPerStack + 1);
        const u32 b = pick(rng, g.banksPerChannel);
        switch (pick(rng, 5)) {
          case 0:
            f = bitFault(0, ch, b, pick(rng, rows), pick(rng, cols),
                         pick(rng, bits));
            break;
          case 1:
            f = wordFault(0, ch, b, pick(rng, rows), pick(rng, cols),
                          pick(rng, bits / 64));
            break;
          case 2:
            f = rowFault(0, ch, b, pick(rng, rows));
            break;
          case 3:
            f = columnFault(0, ch, b, pick(rng, cols));
            break;
          default:
            f = bankFault(0, ch, b);
            break;
        }
    }
    f.transient = rng.chance(0.3);
    return f;
}

/**
 * Decompose a fault set into single-line faults over the data dies,
 * the ECC die, and the parity unit (channel channelsPerStack + 1,
 * bank 0). Corruptness is line-granular, so a line fault stands in for
 * any fault bits within that line.
 */
std::vector<Fault>
decomposeToLines(const std::vector<Fault> &faults, const StackGeometry &g)
{
    std::vector<Fault> lines;
    auto addIfCovered = [&](u32 ch, u32 b, u32 r, u32 c) {
        for (const Fault &f : faults)
            if (f.channel.matches(ch) && f.bank.matches(b) &&
                f.row.matches(r) && f.col.matches(c)) {
                Fault lf;
                lf.stack = DimSpec::exact(0);
                lf.channel = DimSpec::exact(ch);
                lf.bank = DimSpec::exact(b);
                lf.row = DimSpec::exact(r);
                lf.col = DimSpec::exact(c);
                lines.push_back(lf);
                return;
            }
    };
    for (u32 ch = 0; ch <= g.channelsPerStack; ++ch)
        for (u32 b = 0; b < g.banksPerChannel; ++b)
            for (u32 r = 0; r < g.rowsPerBank; ++r)
                for (u32 c = 0; c < g.linesPerRow(); ++c)
                    addIfCovered(ch, b, r, c);
    for (u32 r = 0; r < g.rowsPerBank; ++r)
        for (u32 c = 0; c < g.linesPerRow(); ++c)
            addIfCovered(g.channelsPerStack + 1, 0, r, c);
    return lines;
}

class DifferentialTest : public ::testing::TestWithParam<u32>
{
};

TEST_P(DifferentialTest, AnalyticNeverOverclaimsAndLinesMatchExactly)
{
    const u32 dims = GetParam();
    const StackGeometry g = StackGeometry::tiny();

    SystemConfig cfg;
    cfg.geom = g;
    cfg.subArrayRows = 16;

    MultiDimParityScheme analytic(dims);
    analytic.reset(cfg);
    ParityEngine engine(g, /*seed=*/1234 + dims);

    // Line-decomposed analytic peels get expensive beyond this; sets
    // above the cap (bank faults, several columns) still run the
    // no-overclaim property.
    constexpr std::size_t kExactCap = 96;

    Rng rng(0xD1FFull * (dims + 1));
    u32 correctable = 0, uncorrectable = 0, with_parity_faults = 0;
    u32 exact_checked = 0, conservative = 0;

    for (u32 trial = 0; trial < kTrialsPerDim; ++trial) {
        const u32 n = 1 + pick(rng, 4);
        std::vector<Fault> faults;
        for (u32 i = 0; i < n; ++i)
            faults.push_back(randomFault(rng, g));
        for (const Fault &f : faults)
            if (f.channel.value == g.channelsPerStack + 1 &&
                f.channel.mask == 0xFFFFFFFFu)
                ++with_parity_faults;

        engine.restore();
        engine.corrupt(faults);

        const bool analytic_unc = analytic.uncorrectable(faults);
        const bool peel = engine.peelable(dims);

        // Property 1: no overclaim. Analytic "correctable" must mean
        // the bytes are genuinely recoverable.
        if (!analytic_unc) {
            ASSERT_TRUE(peel)
                << "dims=" << dims << " trial=" << trial << " n=" << n
                << " first=" << faults[0].describe();
        }
        if (analytic_unc && peel)
            ++conservative; // safe direction, expected occasionally

        // The peel predicate must match what byte-level reconstruction
        // actually achieves (verified against the golden image).
        ASSERT_EQ(engine.reconstruct(dims), peel)
            << "dims=" << dims << " trial=" << trial;

        // Property 2: at line granularity the models are equivalent.
        const std::vector<Fault> lines = decomposeToLines(faults, g);
        if (lines.size() <= kExactCap) {
            ++exact_checked;
            ASSERT_EQ(analytic.uncorrectable(lines), !peel)
                << "dims=" << dims << " trial=" << trial
                << " lines=" << lines.size()
                << " first=" << faults[0].describe();
        }

        analytic_unc ? ++uncorrectable : ++correctable;
    }

    // The corpus must genuinely exercise both verdicts, the faulty-
    // parity cases and the exact check, or the properties are vacuous.
    EXPECT_GT(correctable, kTrialsPerDim / 10);
    EXPECT_GT(uncorrectable, kTrialsPerDim / 20);
    EXPECT_GT(with_parity_faults, kTrialsPerDim / 4);
    EXPECT_GT(exact_checked, kTrialsPerDim / 4);
    (void)conservative; // informative only; may be 0 for some dims
}

INSTANTIATE_TEST_SUITE_P(AllDims, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(DifferentialCorpus, InjectorSampledLifetimesAgree)
{
    // Beyond synthetic faults: whole sampled lifetimes from the real
    // injector (restricted to one stack) get the same treatment.
    const StackGeometry g = StackGeometry::tiny();
    SystemConfig cfg;
    cfg.geom = g;
    cfg.subArrayRows = 16;
    cfg.tsvDeviceFit = 1430.0;
    // Boost rates so short lifetimes still produce multi-fault sets.
    cfg.rates = cfg.rates.scaledBy(50.0);

    FaultInjector inj(cfg);
    MultiDimParityScheme analytic(3);
    analytic.reset(cfg);
    ParityEngine engine(g, 99);

    Rng rng(2026);
    u32 nonempty = 0;
    for (u32 trial = 0; trial < 40; ++trial) {
        std::vector<Fault> faults;
        for (const Fault &f : inj.sampleLifetime(rng))
            if (f.stack.matches(0) && !f.fromTsv) {
                Fault local = f;
                local.stack = DimSpec::exact(0);
                faults.push_back(local);
            }
        if (faults.empty())
            continue;
        ++nonempty;

        engine.restore();
        engine.corrupt(faults);
        // No overclaim on real sampled lifetimes either.
        if (!analytic.uncorrectable(faults)) {
            ASSERT_TRUE(engine.reconstruct(3))
                << "trial=" << trial << " n=" << faults.size();
        }
    }
    EXPECT_GT(nonempty, 5u);
}

// ---------------------------------------------------------------------
// Injector edge cases.
// ---------------------------------------------------------------------

TEST(InjectorEdge, ZeroRatesSampleNothing)
{
    SystemConfig cfg;
    cfg.geom = StackGeometry::tiny();
    cfg.subArrayRows = 16;
    cfg.rates = FitTable{}; // all-zero FIT
    cfg.tsvDeviceFit = 0.0;

    FaultInjector inj(cfg);
    Rng rng(7);
    for (u32 trial = 0; trial < 20; ++trial)
        EXPECT_TRUE(inj.sampleLifetime(rng).empty());
}

TEST(InjectorEdge, MinimalGeometryStaysInBounds)
{
    StackGeometry g;
    g.stacks = 1;
    g.channelsPerStack = 1;
    g.banksPerChannel = 1;
    g.rowsPerBank = 16;
    g.rowBytes = 256;
    g.lineBytes = 64;

    SystemConfig cfg;
    cfg.geom = g;
    cfg.subArrayRows = 4;
    cfg.tsvDeviceFit = 1430.0;

    FaultInjector inj(cfg);
    Rng rng(11);
    u32 seen = 0;
    for (u32 trial = 0; trial < 200; ++trial)
        for (const Fault &f : inj.sampleLifetime(rng)) {
            ++seen;
            EXPECT_TRUE(f.stack.matches(0));
            // Channel may address the ECC die (index channelsPerStack).
            if (f.channel.mask == 0xFFFFFFFFu) {
                EXPECT_LE(f.channel.value, g.channelsPerStack);
            }
            if (f.bank.mask == 0xFFFFFFFFu) {
                EXPECT_LT(f.bank.value, g.banksPerChannel);
            }
            if (f.row.mask == 0xFFFFFFFFu) {
                EXPECT_LT(f.row.value, g.rowsPerBank);
            }
            if (f.col.mask == 0xFFFFFFFFu) {
                EXPECT_LT(f.col.value, g.linesPerRow());
            }
        }
    EXPECT_GT(seen, 0u);
}

// ---------------------------------------------------------------------
// Configuration validation.
// ---------------------------------------------------------------------

TEST(ConfigValidation, RejectsBadLifetimeAndScrub)
{
    SystemConfig cfg;
    cfg.lifetimeHours = 0.0;
    EXPECT_DEATH(cfg.validate(), "lifetimeHours");

    cfg = SystemConfig{};
    cfg.scrubHours = -1.0;
    EXPECT_DEATH(cfg.validate(), "scrubHours");
}

TEST(ConfigValidation, RejectsNegativeRates)
{
    SystemConfig cfg;
    cfg.tsvDeviceFit = -5.0;
    EXPECT_DEATH(cfg.validate(), "tsvDeviceFit");

    cfg = SystemConfig{};
    cfg.rates.row.permanentFit = -0.1;
    EXPECT_DEATH(cfg.validate(), "FIT rates");
}

TEST(ConfigValidation, RejectsBadSubArraySetup)
{
    SystemConfig cfg;
    cfg.subArrayFraction = 1.5;
    EXPECT_DEATH(cfg.validate(), "subArrayFraction");

    cfg = SystemConfig{};
    cfg.subArrayRows = 3;
    EXPECT_DEATH(cfg.validate(), "power of two");
}

TEST(ConfigValidation, RejectsNonFiniteValues)
{
    // NaN slips past `x < 0` and `x < lo || x > hi`, +inf past
    // `!(x > 0)`; either would reach Rng::poisson as a rate.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(bad);
        SystemConfig cfg;
        cfg.tsvDeviceFit = bad;
        EXPECT_DEATH(cfg.validate(), "tsvDeviceFit");

        cfg = SystemConfig{};
        cfg.metaFit = bad;
        EXPECT_DEATH(cfg.validate(), "metaFit");

        cfg = SystemConfig{};
        cfg.lifetimeHours = bad;
        EXPECT_DEATH(cfg.validate(), "lifetimeHours");

        cfg = SystemConfig{};
        cfg.scrubHours = bad;
        EXPECT_DEATH(cfg.validate(), "scrubHours");

        cfg = SystemConfig{};
        cfg.subArrayFraction = bad;
        EXPECT_DEATH(cfg.validate(), "subArrayFraction");

        cfg = SystemConfig{};
        cfg.rates.bank.transientFit = bad;
        EXPECT_DEATH(cfg.validate(), "FIT rates");

        cfg = SystemConfig{};
        cfg.rates.bit.permanentFit = bad;
        EXPECT_DEATH(cfg.validate(), "FIT rates");
    }
}

TEST(ConfigValidation, RejectsRatesBeyondFaultCap)
{
    // Finite but absurd rates: 1e12 FIT asks one lifetime for ~1e8
    // faults, 1e25 FIT for a count past what Rng::poisson can convert
    // to a u64.
    for (const double fit : {1e12, 1e25}) {
        SCOPED_TRACE(fit);
        SystemConfig cfg;
        cfg.tsvDeviceFit = fit;
        EXPECT_DEATH(cfg.validate(), "tsvDeviceFit");

        cfg = SystemConfig{};
        cfg.rates.bit.transientFit = fit;
        EXPECT_DEATH(cfg.validate(), "FIT rates");

        cfg = SystemConfig{};
        cfg.metaFit = fit;
        EXPECT_DEATH(cfg.validate(), "metaFit");
    }

    // The cap counts every stack and the whole lifetime: rates that
    // pass on one stack for seven years fail on 1000 stacks or for
    // 1000 times as long.
    SystemConfig cfg;
    cfg.metaFit = 5e8; // ~6.1e4 upsets per lifetime on 2 stacks
    cfg.validate();
    cfg.geom.stacks = 2000;
    EXPECT_DEATH(cfg.validate(), "metaFit");
    cfg = SystemConfig{};
    cfg.tsvDeviceFit = 5e8;
    cfg.validate();
    cfg.lifetimeHours *= 1000.0;
    EXPECT_DEATH(cfg.validate(), "tsvDeviceFit");
}

TEST(ConfigValidation, RejectsZeroGeometryDimensions)
{
    SystemConfig cfg;
    cfg.geom.banksPerChannel = 0;
    EXPECT_DEATH(cfg.validate(), "non-zero");

    cfg = SystemConfig{};
    cfg.geom.lineBytes = 0;
    EXPECT_DEATH(cfg.validate(), "non-zero");
}

} // namespace
} // namespace citadel
