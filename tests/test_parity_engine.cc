/**
 * @file
 * Bit-true 3DP engine tests, including the property-based cross-check:
 * on randomized fault sets over a miniature stack, the analytic Monte
 * Carlo evaluator and the literal XOR-reconstruction engine must agree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "citadel/parity_engine.h"
#include "citadel/three_d_parity.h"
#include "fault_builders.h"
#include "common/serialize.h"
#include "faults/injector.h"

namespace citadel {
namespace {

using namespace testing_helpers;

class ParityEngineTest : public ::testing::Test
{
  protected:
    StackGeometry geom_ = StackGeometry::tiny();
    SystemConfig cfg_;

    void
    SetUp() override
    {
        cfg_.geom = geom_;
        cfg_.subArrayRows = 16;
    }
};

TEST_F(ParityEngineTest, PristineMemoryHasNoCorruptLines)
{
    ParityEngine eng(geom_);
    EXPECT_EQ(eng.corruptLineCount(), 0u);
    EXPECT_TRUE(eng.reconstruct(3));
}

TEST_F(ParityEngineTest, SingleBitFaultDetectedAndFixed)
{
    ParityEngine eng(geom_);
    eng.corrupt({bitFault(0, 1, 1, 10, 2, 77)});
    EXPECT_EQ(eng.corruptLineCount(), 1u);
    EXPECT_TRUE(eng.reconstruct(3));
    EXPECT_EQ(eng.corruptLineCount(), 0u);
}

TEST_F(ParityEngineTest, RowFaultFixedViaAnyDimension)
{
    for (u32 dims : {1u, 2u, 3u}) {
        ParityEngine eng(geom_);
        eng.corrupt({rowFault(0, 1, 1, 20)});
        EXPECT_EQ(eng.corruptLineCount(), geom_.linesPerRow());
        EXPECT_TRUE(eng.reconstruct(dims)) << "dims=" << dims;
    }
}

TEST_F(ParityEngineTest, BankFaultNeedsD1)
{
    ParityEngine eng(geom_);
    eng.corrupt({bankFault(0, 1, 1)});
    EXPECT_EQ(eng.corruptLineCount(),
              static_cast<u64>(geom_.rowsPerBank) * geom_.linesPerRow());
    EXPECT_TRUE(eng.reconstruct(1));
}

TEST_F(ParityEngineTest, ColumnFaultFixedViaD1)
{
    ParityEngine eng(geom_);
    eng.corrupt({columnFault(0, 0, 1, 2)});
    EXPECT_EQ(eng.corruptLineCount(), geom_.rowsPerBank);
    EXPECT_TRUE(eng.reconstruct(1));
}

TEST_F(ParityEngineTest, TwoBankFaultsUnrecoverable)
{
    ParityEngine eng(geom_);
    eng.corrupt({bankFault(0, 0, 0), bankFault(0, 1, 1)});
    EXPECT_FALSE(eng.reconstruct(3));
}

TEST_F(ParityEngineTest, BankPlusBitRecoveredWithThreeDims)
{
    // Bit fault in a different die: D2 peels it, D1 fixes the bank.
    ParityEngine eng(geom_);
    eng.corrupt({bankFault(0, 0, 0), bitFault(0, 1, 1, 30, 1, 99)});
    EXPECT_FALSE(eng.reconstruct(1));
    eng.restore();
    eng.corrupt({bankFault(0, 0, 0), bitFault(0, 1, 1, 30, 1, 99)});
    EXPECT_TRUE(eng.reconstruct(2));
}

TEST_F(ParityEngineTest, RestoreResets)
{
    ParityEngine eng(geom_);
    eng.corrupt({bankFault(0, 0, 0)});
    EXPECT_GT(eng.corruptLineCount(), 0u);
    eng.restore();
    EXPECT_EQ(eng.corruptLineCount(), 0u);
}

TEST_F(ParityEngineTest, SecondCorruptFlipsAgainBeforeRestore)
{
    // corrupt() XORs into the current image: a second call before
    // restore() flips again, and a line both calls touch counts once.
    ParityEngine eng(geom_);
    eng.corrupt({rowFault(0, 1, 1, 20)});
    eng.corrupt({bitFault(0, 1, 1, 20, 2, 5), bitFault(0, 0, 0, 3, 1, 9)});
    EXPECT_EQ(eng.corruptLineCount(), geom_.linesPerRow() + 1);
    eng.corrupt({rowFault(0, 1, 1, 20)});
    EXPECT_EQ(eng.corruptLineCount(), 2u);
    EXPECT_TRUE(eng.verdictsMatchCrc());
    EXPECT_TRUE(eng.lineCorruptAt(DieId{1}, BankId{1}, RowId{20}, ColId{2}));
    EXPECT_TRUE(eng.reconstruct(3));
    eng.restore();
    EXPECT_EQ(eng.corruptLineCount(), 0u);

    // Hundreds of dirty lines, some hit twice and unsorted: the merge
    // must keep the verdicts and group counts exact.
    eng.corrupt({bankFault(0, 1, 1)});
    eng.corrupt({rowFault(0, 1, 1, 20), bankFault(0, 0, 0)});
    EXPECT_EQ(eng.corruptLineCount(),
              2 * static_cast<u64>(geom_.rowsPerBank) * geom_.linesPerRow() -
                  geom_.linesPerRow());
    EXPECT_TRUE(eng.verdictsMatchCrc());
}

TEST_F(ParityEngineTest, RejectsMultiStackGeometry)
{
    StackGeometry two = geom_;
    two.stacks = 2;
    EXPECT_DEATH(ParityEngine eng(two), "single-stack");
}

/**
 * The core property test: for randomized fault sets the analytic
 * evaluator's verdict must equal the bit-true engine's reconstruction
 * outcome, for every dimension count. Skipped when overlapping faults
 * cancel bit flips (the analytic model is conservatively pessimistic
 * there; see DESIGN.md).
 */
class CrossCheck : public ::testing::TestWithParam<u32>
{
};

TEST_P(CrossCheck, AnalyticMatchesBitTrue)
{
    const u32 dims = GetParam();
    StackGeometry geom = StackGeometry::tiny();
    SystemConfig cfg;
    cfg.geom = geom;
    cfg.subArrayRows = 16;
    FaultInjector inj(cfg);
    MultiDimParityScheme scheme(dims);
    scheme.reset(cfg);
    ParityEngine eng(geom);
    Rng rng(1234 + dims);

    const FaultClass classes[] = {
        FaultClass::Bit,    FaultClass::Word, FaultClass::Column,
        FaultClass::Row,    FaultClass::SubArray, FaultClass::Bank,
        FaultClass::Channel};

    int checked = 0;
    for (int iter = 0; iter < 120; ++iter) {
        const u32 nfaults = 1 + static_cast<u32>(rng.below(3));
        std::vector<Fault> faults;
        for (u32 i = 0; i < nfaults; ++i) {
            const FaultClass cls =
                classes[rng.below(std::size(classes))];
            const u32 die =
                static_cast<u32>(rng.below(geom.channelsPerStack + 1));
            faults.push_back(inj.makeFault(rng, cls, StackId{0},
                                           ChannelId{die},
                                           /*transient=*/false, 0.0));
        }

        eng.restore();
        eng.corrupt(faults);
        if (eng.corruptLineCount() == 0)
            continue; // overlapping flips cancelled; verdicts may differ

        const bool engine_ok = eng.reconstruct(dims);
        const bool analytic_unc = scheme.uncorrectable(faults);
        ASSERT_EQ(engine_ok, !analytic_unc)
            << "dims=" << dims << " iter=" << iter << " faults:"
            << [&] {
                   std::string s;
                   for (const auto &f : faults)
                       s += "\n  " + f.describe();
                   return s;
               }();
        ++checked;
    }
    EXPECT_GT(checked, 80);
}

INSTANTIATE_TEST_SUITE_P(AllDims, CrossCheck, ::testing::Values(1u, 2u, 3u));

/**
 * Test-local reference of the engine's rules, independent of its data
 * structures. A line is corrupt iff a fault covers it and at least one
 * of its bits (the engine flips the union of covered bits, so
 * overlapping faults never cancel). A corrupt line peels in a
 * dimension when no other member of that parity group is corrupt;
 * reconstruction fixes the first peelable line of the corrupt list
 * and rescans from the start; a demand correction fixes the target
 * when it peels, else the first peelable line. The corrupt list runs
 * over data lines by (die, bank, row, col), then the parity store by
 * (row, col). Group membership is read off a dense grid over
 * (die 0..parityDie, bank, row, col), where the parity unit uses bank
 * 0 only.
 */
class Reference
{
  public:
    struct Line
    {
        u32 die, bank, row, col;
        bool operator==(const Line &) const = default;
    };

    struct Fix
    {
        bool corrected = false;
        u32 dimUsed = 0;
        u32 groupReads = 0;
        u32 linesFixed = 0;
    };

    explicit Reference(const StackGeometry &g)
        : g_(g), dies_(g.channelsPerStack + 1),
          grid_(static_cast<std::size_t>(dies_ + 1) * g.banksPerChannel *
                    g.rowsPerBank * g.linesPerRow(),
                0)
    {
    }

    u32 parityDie() const { return dies_; }

    std::vector<Line>
    allLines() const
    {
        std::vector<Line> out;
        for (u32 d = 0; d < dies_; ++d)
            for (u32 b = 0; b < g_.banksPerChannel; ++b)
                for (u32 r = 0; r < g_.rowsPerBank; ++r)
                    for (u32 c = 0; c < g_.linesPerRow(); ++c)
                        out.push_back({d, b, r, c});
        for (u32 r = 0; r < g_.rowsPerBank; ++r)
            for (u32 c = 0; c < g_.linesPerRow(); ++c)
                out.push_back({dies_, 0, r, c});
        return out;
    }

    std::vector<Line>
    corruptLines(const std::vector<Fault> &faults) const
    {
        std::vector<Line> out;
        for (const Line &l : allLines())
            for (const Fault &f : faults)
                if (covers(f, l)) {
                    out.push_back(l);
                    break;
                }
        return out;
    }

    /** Lines the peel cannot reach: what reconstruct() leaves corrupt. */
    std::vector<Line>
    peel(std::vector<Line> corrupt, u32 dims)
    {
        mark(corrupt, 1);
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t i = 0; i < corrupt.size(); ++i) {
                if (peelDim(corrupt[i], dims) == 0)
                    continue;
                at(corrupt[i]) = 0;
                corrupt.erase(corrupt.begin() + static_cast<long>(i));
                progress = true;
                break;
            }
        }
        mark(corrupt, 0);
        return corrupt;
    }

    /** correctLine() on `corrupt`, which is left holding the lines that
     *  stay corrupt. */
    Fix
    correct(std::vector<Line> &corrupt, const Line &target, u32 dims)
    {
        Fix fix;
        auto pending = [&] {
            return std::find(corrupt.begin(), corrupt.end(), target) !=
                   corrupt.end();
        };
        if (!pending()) {
            fix.corrected = true;
            return fix;
        }
        mark(corrupt, 1);
        while (pending()) {
            std::size_t pick = corrupt.size();
            u32 pick_dim = 0;
            for (std::size_t i = 0; i < corrupt.size(); ++i) {
                const u32 dim = peelDim(corrupt[i], dims);
                if (dim == 0)
                    continue;
                if (corrupt[i] == target) {
                    pick = i;
                    pick_dim = dim;
                    break;
                }
                if (pick == corrupt.size()) {
                    pick = i;
                    pick_dim = dim;
                }
            }
            if (pick == corrupt.size())
                break;
            fix.groupReads += groupReads(corrupt[pick], pick_dim);
            ++fix.linesFixed;
            if (corrupt[pick] == target)
                fix.dimUsed = pick_dim;
            at(corrupt[pick]) = 0;
            corrupt.erase(corrupt.begin() + static_cast<long>(pick));
        }
        mark(corrupt, 0);
        fix.corrected = !pending();
        return fix;
    }

  private:
    StackGeometry g_;
    u32 dies_;
    std::vector<u8> grid_; ///< 1 = corrupt, during peel()/correct().

    bool
    covers(const Fault &f, const Line &l) const
    {
        if (!f.channel.matches(l.die) || !f.bank.matches(l.bank) ||
            !f.row.matches(l.row) || !f.col.matches(l.col))
            return false;
        for (u32 bit = 0; bit < g_.bitsPerLine(); ++bit)
            if (f.bit.matches(bit))
                return true;
        return false;
    }

    u8 &
    at(u32 d, u32 b, u32 r, u32 c)
    {
        return grid_[((static_cast<std::size_t>(d) * g_.banksPerChannel +
                       b) * g_.rowsPerBank + r) * g_.linesPerRow() + c];
    }
    u8 &at(const Line &l) { return at(l.die, l.bank, l.row, l.col); }

    void
    mark(const std::vector<Line> &lines, u8 v)
    {
        for (const Line &l : lines)
            at(l) = v;
    }

    /** Corrupt members of `l`'s group in `dim`, `l` excluded. */
    u32
    others(const Line &l, u32 dim)
    {
        u32 n = 0;
        auto count = [&](u32 d, u32 b, u32 r) {
            if (!(Line{d, b, r, l.col} == l))
                n += at(d, b, r, l.col);
        };
        switch (dim) {
          case 1: // every (die, bank) unit at (row, col), parity included
            for (u32 d = 0; d < dies_; ++d)
                for (u32 b = 0; b < g_.banksPerChannel; ++b)
                    count(d, b, l.row);
            count(dies_, 0, l.row);
            break;
          case 2: // every (bank, row) slice of the die at col
            if (l.die == dies_) {
                for (u32 r = 0; r < g_.rowsPerBank; ++r)
                    count(dies_, 0, r);
                break;
            }
            for (u32 b = 0; b < g_.banksPerChannel; ++b)
                for (u32 r = 0; r < g_.rowsPerBank; ++r)
                    count(l.die, b, r);
            break;
          default: // every (die, row) slice of the bank position at col
            for (u32 d = 0; d < dies_; ++d)
                for (u32 r = 0; r < g_.rowsPerBank; ++r)
                    count(d, l.bank, r);
            if (l.bank == 0)
                for (u32 r = 0; r < g_.rowsPerBank; ++r)
                    count(dies_, 0, r);
            break;
        }
        return n;
    }

    u32
    peelDim(const Line &l, u32 dims)
    {
        for (u32 dim = 1; dim <= std::max(dims, 1u); ++dim)
            if (others(l, dim) == 0)
                return dim;
        return 0;
    }

    u32
    groupReads(const Line &l, u32 dim) const
    {
        const u32 banks = g_.banksPerChannel;
        const u32 rows = g_.rowsPerBank;
        if (dim == 1)
            return dies_ * banks;
        if (dim == 2)
            return l.die == dies_ ? rows - 1 : banks * rows - 1;
        return l.bank == 0 ? (dies_ + 1) * rows - 1 : dies_ * rows - 1;
    }
};

/** One random fault of a mix that reaches every corner of the engine:
 *  injector classes on data and metadata dies, overlapping partial-bit
 *  faults, parity-store faults, wildcard channels, and faults whose bit
 *  range misses the line entirely. */
Fault
oracleFault(Rng &rng, const FaultInjector &inj, const StackGeometry &g,
            u32 parity_die)
{
    static const FaultClass classes[] = {
        FaultClass::Bit,    FaultClass::Word,     FaultClass::Column,
        FaultClass::Row,    FaultClass::SubArray, FaultClass::Bank,
        FaultClass::Channel};
    const u32 banks = g.banksPerChannel;
    const u32 rows = g.rowsPerBank;
    const u32 cols = g.linesPerRow();
    switch (rng.below(6)) {
      case 0:
      case 1: {
        const FaultClass cls = classes[rng.below(std::size(classes))];
        const u32 die = static_cast<u32>(rng.below(g.channelsPerStack + 1));
        return inj.makeFault(rng, cls, StackId{0}, ChannelId{die},
                             /*transient=*/false, 0.0);
      }
      case 2: {
        // Partial-bit Bit/Word faults crowded into a 2x2 corner of
        // every unit, so sets overlap on lines and on bits.
        const u32 die = static_cast<u32>(rng.below(parity_die + 1));
        Fault f = bitFault(0, die,
                           die == parity_die
                               ? 0
                               : static_cast<u32>(rng.below(banks)),
                           static_cast<u32>(rng.below(2)),
                           static_cast<u32>(rng.below(2)), 0);
        f.cls = rng.chance(0.5) ? FaultClass::Bit : FaultClass::Word;
        f.bit = DimSpec::masked(static_cast<u32>(rng.below(512)),
                                static_cast<u32>(rng.below(512)));
        return f;
      }
      case 3: {
        // The D1 parity store: die parityDie(), bank 0.
        Fault f = baseFault(FaultClass::Row, 0, parity_die);
        f.bank = rng.chance(0.5) ? DimSpec::exact(0) : DimSpec::wild();
        f.row = rng.chance(0.5)
                    ? DimSpec::exact(static_cast<u32>(rng.below(rows)))
                    : DimSpec::masked(static_cast<u32>(rng.below(rows)),
                                      static_cast<u32>(rng.below(rows)));
        if (rng.chance(0.5))
            f.col = DimSpec::exact(static_cast<u32>(rng.below(cols)));
        if (rng.chance(0.3))
            f.bit = DimSpec::exact(static_cast<u32>(rng.below(512)));
        return f;
      }
      case 4: {
        // Wildcard channel: every die, the parity unit included.
        Fault f = rowFault(0, 0, static_cast<u32>(rng.below(banks)),
                           static_cast<u32>(rng.below(rows)));
        f.channel = DimSpec::wild();
        if (rng.chance(0.5))
            f.col = DimSpec::exact(static_cast<u32>(rng.below(cols)));
        if (rng.chance(0.5))
            f.bit = DimSpec::masked(static_cast<u32>(rng.below(512)),
                                    static_cast<u32>(rng.below(512)));
        return f;
      }
      default:
        // A bit coordinate past the line: covers lines, flips nothing.
        return bitFault(0, static_cast<u32>(rng.below(parity_die + 1)), 0,
                        static_cast<u32>(rng.below(rows)),
                        static_cast<u32>(rng.below(cols)),
                        512 + static_cast<u32>(rng.below(512)));
    }
}

u64
foldDigest(u64 h, u64 digest)
{
    return fnv1a(reinterpret_cast<const u8 *>(&digest), sizeof(digest), h);
}

/**
 * Detection, peel verdicts, demand correction and reconstruction agree
 * with the reference on 1200 counter-seeded fault sets, and the byte
 * images after corrupt(), correctLine() and reconstruct() hash to
 * pinned values (any change in which bits flip or how lines are
 * rebuilt moves them).
 */
TEST(ParityEngineOracle, MatchesReferenceRules)
{
    const StackGeometry geom = StackGeometry::tiny();
    SystemConfig cfg;
    cfg.geom = geom;
    cfg.subArrayRows = 16;
    const FaultInjector inj(cfg);
    ParityEngine eng(geom);
    Reference ref(geom);
    ASSERT_EQ(ref.parityDie(), eng.parityDie().value());
    const std::vector<Reference::Line> all = ref.allLines();

    u64 corrupt_h = 0xCBF29CE484222325ull;
    u64 correct_h = corrupt_h;
    u64 rebuilt_h = corrupt_h;
    int multi_fix = 0, parity_target = 0, unpeelable = 0, stuck = 0;

    // Per-line verdicts against the reference's corrupt list.
    auto checkLines = [&](const std::vector<Reference::Line> &corrupt,
                          int set) {
        std::vector<u8> bad(all.size(), 0);
        std::size_t j = 0;
        for (std::size_t i = 0; i < all.size() && j < corrupt.size(); ++i)
            if (all[i] == corrupt[j]) {
                bad[i] = 1;
                ++j;
            }
        ASSERT_EQ(j, corrupt.size()) << "set " << set;
        for (std::size_t i = 0; i < all.size(); ++i) {
            const Reference::Line &l = all[i];
            const DieId d{l.die};
            const BankId b{l.bank};
            const RowId r{l.row};
            const ColId c{l.col};
            ASSERT_EQ(eng.lineCorruptAt(d, b, r, c), bad[i] != 0)
                << "set " << set << " line " << l.die << "/" << l.bank
                << "/" << l.row << "/" << l.col;
            ASSERT_EQ(eng.lineMatchesGolden(d, b, r, c), bad[i] == 0)
                << "set " << set;
        }
        ASSERT_EQ(eng.corruptLineCount(), corrupt.size()) << "set " << set;
    };

    for (int set = 0; set < 1200; ++set) {
        Rng rng(u64{0x0AC1E000} + static_cast<u64>(set));
        std::vector<Fault> faults;
        const u64 nfaults = 1 + rng.below(4);
        for (u64 i = 0; i < nfaults; ++i)
            faults.push_back(oracleFault(rng, inj, geom, ref.parityDie()));

        eng.restore();
        eng.corrupt(faults);
        std::vector<Reference::Line> corrupt = ref.corruptLines(faults);
        checkLines(corrupt, set);
        for (u32 dims = 1; dims <= 3; ++dims)
            ASSERT_EQ(eng.peelable(dims), ref.peel(corrupt, dims).empty())
                << "set " << set << " dims " << dims;
        corrupt_h = foldDigest(corrupt_h, eng.imageDigest());

        // Demand-correct one line: usually a corrupt one, sometimes
        // any line (a clean target costs nothing).
        const u32 dims = 1 + static_cast<u32>(set % 3);
        const Reference::Line target =
            !corrupt.empty() && !rng.chance(0.1)
                ? corrupt[rng.below(corrupt.size())]
                : all[rng.below(all.size())];
        const ParityEngine::DemandFix got =
            eng.correctLine(DieId{target.die}, BankId{target.bank},
                            RowId{target.row}, ColId{target.col}, dims);
        const Reference::Fix want = ref.correct(corrupt, target, dims);
        ASSERT_EQ(got.corrected, want.corrected) << "set " << set;
        ASSERT_EQ(got.dimUsed, want.dimUsed) << "set " << set;
        ASSERT_EQ(got.groupReads, want.groupReads) << "set " << set;
        ASSERT_EQ(got.linesFixed, want.linesFixed) << "set " << set;
        checkLines(corrupt, set);
        ASSERT_EQ(eng.peelable(dims), ref.peel(corrupt, dims).empty())
            << "set " << set;
        correct_h = foldDigest(correct_h, eng.imageDigest());
        multi_fix += want.linesFixed > 1;
        parity_target += target.die == ref.parityDie() && want.linesFixed;
        stuck += !want.corrected;

        // Full reconstruction of what the demand fix left behind.
        const std::vector<Reference::Line> left = ref.peel(corrupt, dims);
        ASSERT_EQ(eng.reconstruct(dims), left.empty()) << "set " << set;
        ASSERT_EQ(eng.corruptLineCount(), left.size()) << "set " << set;
        rebuilt_h = foldDigest(rebuilt_h, eng.imageDigest());
        unpeelable += !left.empty();
    }

    // The mix must reach the paths the pins guard.
    EXPECT_GT(multi_fix, 30);
    EXPECT_GT(parity_target, 30);
    EXPECT_GT(unpeelable, 30);
    EXPECT_GT(stuck, 30);

    EXPECT_EQ(corrupt_h, 0xb01d441e3b759e74ull);
    EXPECT_EQ(correct_h, 0xfabc97bb9922f8beull);
    EXPECT_EQ(rebuilt_h, 0x041a3e046799047dull);
}

/** Every storage line: data by (die, bank, row, col), then the parity
 *  store (die parityDie(), bank 0) by (row, col). */
template <class Fn>
void
forEachLine(const ParityEngine &eng, const StackGeometry &g, Fn &&fn)
{
    const u32 pdie = eng.parityDie().value();
    for (u32 d = 0; d <= pdie; ++d)
        for (u32 b = 0; b < (d == pdie ? 1 : g.banksPerChannel); ++b)
            for (u32 r = 0; r < g.rowsPerBank; ++r)
                for (u32 c = 0; c < g.linesPerRow(); ++c)
                    fn(DieId{d}, BankId{b}, RowId{r}, ColId{c});
}

/** `got` holds the image, corrupt count and per-line CRC verdicts of
 *  `want`, and its cached verdicts equal a fresh CRC. */
::testing::AssertionResult
sameImage(const ParityEngine &got, const ParityEngine &want,
          const StackGeometry &g)
{
    if (!got.verdictsMatchCrc())
        return ::testing::AssertionFailure() << "cached verdict is stale";
    if (got.imageDigest() != want.imageDigest())
        return ::testing::AssertionFailure() << "image digest differs";
    if (got.corruptLineCount() != want.corruptLineCount())
        return ::testing::AssertionFailure()
               << got.corruptLineCount() << " corrupt lines, fresh build "
               << want.corruptLineCount();
    u64 differ = 0;
    forEachLine(got, g, [&](DieId d, BankId b, RowId r, ColId c) {
        differ += got.lineCorruptAt(d, b, r, c) !=
                  want.lineCorruptAt(d, b, r, c);
    });
    if (differ != 0)
        return ::testing::AssertionFailure()
               << differ << " lines' CRC verdicts differ";
    return ::testing::AssertionSuccess();
}

/**
 * rebuild() stands in for restore() + corrupt() on 300 counter-seeded
 * fault sets: rebuilding the same set after a demand correction
 * (corrected or DUE) or a full reconstruction undoes exactly the
 * fixes, and rebuilding a different set from a fixed image equals the
 * full path. The cached verdicts equal a fresh CRC after every step.
 */
TEST(ParityEngineRebuild, UndoMatchesFreshBuild)
{
    const StackGeometry geom = StackGeometry::tiny();
    SystemConfig cfg;
    cfg.geom = geom;
    cfg.subArrayRows = 16;
    const FaultInjector inj(cfg);
    ParityEngine eng(geom);
    ParityEngine fresh(geom);
    const u32 pdie = eng.parityDie().value();
    int undone = 0, due = 0, from_fixed = 0;

    for (int set = 0; set < 300; ++set) {
        Rng rng(u64{0x5EB1D000} + static_cast<u64>(set));
        std::vector<Fault> faults;
        const u64 nfaults = 1 + rng.below(4);
        for (u64 i = 0; i < nfaults; ++i)
            faults.push_back(oracleFault(rng, inj, geom, pdie));

        // A new set: the full path, from whatever the last set left.
        fresh.restore();
        fresh.corrupt(faults);
        eng.rebuild(faults);
        ASSERT_TRUE(sameImage(eng, fresh, geom)) << "set " << set << " new";

        std::vector<std::array<u32, 4>> corrupt;
        forEachLine(fresh, geom, [&](DieId d, BankId b, RowId r, ColId c) {
            if (fresh.lineCorruptAt(d, b, r, c))
                corrupt.push_back(
                    {d.value(), b.value(), r.value(), c.value()});
        });
        if (corrupt.empty())
            continue;

        const u32 dims = 1 + static_cast<u32>(set % 3);
        const auto &t = corrupt[rng.below(corrupt.size())];
        const ParityEngine::DemandFix fix = eng.correctLine(
            DieId{t[0]}, BankId{t[1]}, RowId{t[2]}, ColId{t[3]}, dims);
        ASSERT_TRUE(eng.verdictsMatchCrc()) << "set " << set;
        undone += fix.linesFixed > 0;
        due += !fix.corrected;
        eng.rebuild(faults);
        ASSERT_TRUE(sameImage(eng, fresh, geom))
            << "set " << set << " after correctLine";

        eng.reconstruct(dims);
        ASSERT_TRUE(eng.verdictsMatchCrc()) << "set " << set;
        if (set % 2 == 0) {
            eng.rebuild(faults);
            ASSERT_TRUE(sameImage(eng, fresh, geom))
                << "set " << set << " after reconstruct";
        } else {
            ++from_fixed; // the next set rebuilds from this image
        }
    }

    EXPECT_GT(undone, 100);
    EXPECT_GT(due, 20);
    EXPECT_GT(from_fixed, 100);
}

} // namespace
} // namespace citadel
