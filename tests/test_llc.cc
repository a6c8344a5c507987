/**
 * @file
 * Tests for the LLC model: LRU behavior, dirty eviction reporting,
 * parity-line bookkeeping, and agreement with a per-way timestamp
 * model of the same cache with every tag compare.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/kernels.h"
#include "common/rng.h"
#include "sim/llc.h"
#include "sim/llc_match.h"

namespace citadel {
namespace {

/** One tag compare of sim/llc_match.h, alone and inlined in a fill. */
struct Compare
{
    unsigned (*match)(const u64 (&tags)[Llc::kMaxWays], u64 addr);
    Llc::Victim (*fill)(Llc &llc, LineAddr addr, bool dirty, bool parity);
    const char *name;
};

template <auto Match>
Llc::Victim
fillThrough(Llc &llc, LineAddr addr, bool dirty, bool parity)
{
    return llc.fillWith<Match>(addr, dirty, parity);
}

/** Every compare this build compiled and this CPU runs. */
std::vector<Compare>
compares()
{
    std::vector<Compare> c{
        {&matchMask, &fillThrough<matchMask>, "scalar-u64"},
        {&matchMaskVector, &fillThrough<matchMaskVector>, "vector2x4x64"}};
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (cpuHasAvx2())
        c.push_back({&matchMaskAvx2, &fillThrough<matchMaskAvx2>,
                     "vector2x4x64-avx2"});
    if (cpuHasAvx512())
        c.push_back({&matchMaskAvx512, &fillThrough<matchMaskAvx512>,
                     "vector8x64-avx512"});
#endif
    return c;
}

/**
 * Reference model: the LLC as per-way timestamps, the victim chosen
 * by a scan for the first empty way or else the oldest touch. Llc
 * keeps a recency word instead; both must return the same victims,
 * probe results and statistics for any sequence of calls.
 */
class TimestampLlc
{
  public:
    TimestampLlc(u64 lines, u32 ways)
        : ways_(ways), sets_(lines / ways), tags_(lines, kEmpty),
          lastUse_(lines, 0), flags_(lines, 0)
    {
    }

    bool probeParity(LineAddr addr)
    {
        ++stats_.parityProbes;
        const u64 base = (addr.value() % sets_) * ways_;
        for (u64 i = base; i < base + ways_ && tags_[i] != kEmpty; ++i) {
            if (tags_[i] == addr.value()) {
                ++stats_.parityHits;
                flags_[i] |= kDirty;
                lastUse_[i] = ++useClock_;
                return true;
            }
        }
        return false;
    }

    Llc::Victim fill(LineAddr addr, bool dirty, bool parity)
    {
        if (parity)
            ++stats_.parityFills;
        else
            ++stats_.dataFills;
        const u64 base = (addr.value() % sets_) * ways_;
        u64 v = base;
        for (u64 i = base; i < base + ways_; ++i) {
            if (tags_[i] == addr.value()) {
                if (dirty)
                    flags_[i] |= kDirty;
                lastUse_[i] = ++useClock_;
                return {};
            }
            if (tags_[i] == kEmpty) {
                v = i;
                break;
            }
            if (lastUse_[i] < lastUse_[v])
                v = i;
        }
        Llc::Victim out;
        if (tags_[v] != kEmpty) {
            out.valid = true;
            out.addr = LineAddr{tags_[v]};
            out.dirty = (flags_[v] & kDirty) != 0;
            out.parity = (flags_[v] & kParity) != 0;
            if (out.dirty) {
                if (out.parity)
                    ++stats_.dirtyParityEvictions;
                else
                    ++stats_.dirtyDataEvictions;
            }
        }
        tags_[v] = addr.value();
        flags_[v] = static_cast<u8>((dirty ? kDirty : 0) |
                                    (parity ? kParity : 0));
        lastUse_[v] = ++useClock_;
        return out;
    }

    const LlcStats &stats() const { return stats_; }

  private:
    static constexpr u64 kEmpty = ~0ull;
    static constexpr u8 kDirty = 1;
    static constexpr u8 kParity = 2;

    u32 ways_;
    u64 sets_;
    std::vector<u64> tags_;
    std::vector<u64> lastUse_;
    std::vector<u8> flags_;
    u64 useClock_ = 0;
    LlcStats stats_;
};

TEST(Llc, GeometryChecks)
{
    Llc c(8ull << 20, 8);
    EXPECT_EQ(c.sets(), (8ull << 20) / 64 / 8);
    EXPECT_DEATH(Llc bad(100, 8), "bad geometry");
    EXPECT_DEATH(Llc none(64 * 64, 0), "bad geometry");
    // Eight ways is all a set's recency word can order.
    EXPECT_DEATH(Llc wide(16 * 64, 16), "bad geometry");
}

TEST(Llc, MatchesTheTimestampModel)
{
    // Counter-seeded call sequences over few enough lines per set that
    // hits, refills and evictions all happen: data fills, parity fills
    // and parity probes, dirty on and off, on every associativity a
    // recency word holds and on set counts with and without a mask,
    // with the fills through every tag compare this host runs.
    for (const Compare &entry : compares()) {
        SCOPED_TRACE(entry.name);
        for (const u32 ways : {1u, 2u, 4u, 8u}) {
            for (const u64 sets : {1u, 3u, 12u, 16u}) {
                const u64 lines = sets * ways;
                Llc llc(lines * 64, ways);
                TimestampLlc ref(lines, ways);
                ASSERT_EQ(llc.sets(), sets);
                Rng rng(mix64(ways * 1000 + sets));
                const u64 span = lines * 3;
                for (int i = 0; i < 20000; ++i) {
                    const u64 x = rng.next();
                    const LineAddr addr{(x >> 8) % span};
                    const bool dirty = (x & 1) != 0;
                    const u64 op = (x >> 1) % 8;
                    if (op == 0) {
                        ASSERT_EQ(llc.probeParity(addr), ref.probeParity(addr))
                            << ways << "x" << sets << " call " << i;
                        continue;
                    }
                    const bool parity = op == 1;
                    const Llc::Victim got =
                        entry.fill(llc, addr, dirty, parity);
                    const Llc::Victim want = ref.fill(addr, dirty, parity);
                    ASSERT_EQ(got.valid, want.valid)
                        << ways << "x" << sets << " call " << i;
                    ASSERT_EQ(got.addr, want.addr)
                        << ways << "x" << sets << " call " << i;
                    ASSERT_EQ(got.dirty, want.dirty)
                        << ways << "x" << sets << " call " << i;
                    ASSERT_EQ(got.parity, want.parity)
                        << ways << "x" << sets << " call " << i;
                }
                const LlcStats &a = llc.stats();
                const LlcStats &b = ref.stats();
                EXPECT_EQ(a.dataFills, b.dataFills);
                EXPECT_EQ(a.dirtyDataEvictions, b.dirtyDataEvictions);
                EXPECT_EQ(a.parityProbes, b.parityProbes);
                EXPECT_EQ(a.parityHits, b.parityHits);
                EXPECT_EQ(a.parityFills, b.parityFills);
                EXPECT_EQ(a.dirtyParityEvictions, b.dirtyParityEvictions);
            }
        }
    }
}

TEST(Llc, EveryCompareHitsEachWay)
{
    // A set filled way by way, empty ways holding the empty tag: each
    // resident line matches its way alone, on every compare as on
    // matchMask, and other lines match nothing.
    for (const Compare &entry : compares()) {
        SCOPED_TRACE(entry.name);
        u64 tags[Llc::kMaxWays];
        for (u64 &t : tags)
            t = ~0ull;
        for (u32 filled = 0; filled <= Llc::kMaxWays; ++filled) {
            for (u64 a = 0; a < 2 * Llc::kMaxWays; ++a) {
                const unsigned want =
                    a < filled ? 1u << static_cast<unsigned>(a) : 0u;
                EXPECT_EQ(entry.match(tags, 10 + a), want)
                    << "filled " << filled << " line " << 10 + a;
                EXPECT_EQ(matchMask(tags, 10 + a), want);
            }
            if (filled < Llc::kMaxWays)
                tags[filled] = 10 + filled;
        }
    }
    // Through the fill: once a set is full, a dirty refill of the line
    // in way w must dirty and touch way w alone, so eight new fills
    // evict it last and dirty, the rest first and clean.
    for (const Compare &entry : compares()) {
        SCOPED_TRACE(entry.name);
        for (u64 w = 0; w < 8; ++w) {
            Llc c(8 * 64, 8);
            for (u64 a = 0; a < 8; ++a)
                EXPECT_FALSE(
                    entry.fill(c, LineAddr{10 + a}, false, false).valid);
            EXPECT_FALSE(entry.fill(c, LineAddr{10 + w}, true, false).valid);
            for (u64 i = 0; i < 8; ++i) {
                const Llc::Victim v =
                    entry.fill(c, LineAddr{100 + i}, false, false);
                ASSERT_TRUE(v.valid);
                const u64 want = i < 7 ? 10 + i + (i >= w) : 10 + w;
                EXPECT_EQ(v.addr, LineAddr{want}) << "way " << w;
                EXPECT_EQ(v.dirty, i == 7) << "way " << w;
            }
        }
    }
}

TEST(Llc, FillAndEvictLru)
{
    // 2 sets x 2 ways; addresses with the same parity share a set.
    Llc c(4 * 64, 2);
    ASSERT_EQ(c.sets(), 2u);

    EXPECT_FALSE(c.fill(LineAddr{0}, false, false).valid);
    EXPECT_FALSE(c.fill(LineAddr{2}, false, false).valid);
    // Set 0 is full {0, 2}; filling 4 evicts the LRU (0).
    const auto v = c.fill(LineAddr{4}, false, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, LineAddr{0});
    EXPECT_FALSE(v.dirty);
}

TEST(Llc, TouchUpdatesLru)
{
    Llc c(4 * 64, 2);
    c.fill(LineAddr{0}, false, true);
    c.fill(LineAddr{2}, false, false);
    // Touch 0 via a parity probe; now 2 is LRU.
    EXPECT_TRUE(c.probeParity(LineAddr{0}));
    const auto v = c.fill(LineAddr{4}, false, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, LineAddr{2});
}

TEST(Llc, DirtyEvictionReported)
{
    Llc c(4 * 64, 2);
    c.fill(LineAddr{0}, true, false);
    c.fill(LineAddr{2}, false, false);
    const auto v = c.fill(LineAddr{4}, false, false);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_FALSE(v.parity);
    EXPECT_EQ(c.stats().dirtyDataEvictions, 1u);
}

TEST(Llc, ParityProbeMissThenHit)
{
    Llc c(4 * 64, 2);
    EXPECT_FALSE(c.probeParity(LineAddr{6}));
    c.fill(LineAddr{6}, true, true);
    EXPECT_TRUE(c.probeParity(LineAddr{6}));
    EXPECT_EQ(c.stats().parityProbes, 2u);
    EXPECT_EQ(c.stats().parityHits, 1u);
    EXPECT_DOUBLE_EQ(c.stats().parityHitRate(), 0.5);
}

TEST(Llc, ParityEvictionTagged)
{
    Llc c(4 * 64, 2);
    c.fill(LineAddr{0}, true, true); // dirty parity line
    c.fill(LineAddr{2}, false, false);
    const auto v = c.fill(LineAddr{4}, false, false);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.parity);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(c.stats().dirtyParityEvictions, 1u);
}

TEST(Llc, RefillOfResidentLineNoEviction)
{
    Llc c(4 * 64, 2);
    c.fill(LineAddr{0}, false, false);
    const auto v = c.fill(LineAddr{0}, true, false);
    EXPECT_FALSE(v.valid);
    // The refill merged dirtiness.
    c.fill(LineAddr{2}, false, false);
    const auto v2 = c.fill(LineAddr{4}, false, false);
    ASSERT_TRUE(v2.valid);
    EXPECT_EQ(v2.addr, LineAddr{0});
    EXPECT_TRUE(v2.dirty);
}

TEST(Llc, EightWayEvictsInTouchOrder)
{
    // One set of 8 ways (Table II associativity): every line maps to
    // it. Touch all 8 residents in a permuted order, alternating refill
    // and parity probe, then 8 new fills must evict in touch order.
    Llc c(8 * 64, 8);
    ASSERT_EQ(c.sets(), 1u);
    for (u64 a = 0; a < 8; ++a)
        EXPECT_FALSE(c.fill(LineAddr{a}, false, false).valid);
    const u64 touch[8] = {5, 2, 7, 0, 3, 6, 1, 4};
    for (std::size_t i = 0; i < 8; ++i) {
        if (i % 2 == 0)
            EXPECT_FALSE(c.fill(LineAddr{touch[i]}, false, false).valid);
        else
            EXPECT_TRUE(c.probeParity(LineAddr{touch[i]}));
    }
    for (std::size_t i = 0; i < 8; ++i) {
        const auto v = c.fill(LineAddr{100 + i}, false, false);
        ASSERT_TRUE(v.valid) << i;
        EXPECT_EQ(v.addr, LineAddr{touch[i]}) << i;
        EXPECT_EQ(v.dirty, i % 2 == 1) << i; // probes mark dirty
    }
}

TEST(Llc, StatsCountFills)
{
    Llc c(8 * 64, 2);
    c.fill(LineAddr{0}, false, false);
    c.fill(LineAddr{1}, false, true);
    EXPECT_EQ(c.stats().dataFills, 1u);
    EXPECT_EQ(c.stats().parityFills, 1u);
}

TEST(Llc, EmptyStatsZeroHitRate)
{
    Llc c(8 * 64, 2);
    EXPECT_DOUBLE_EQ(c.stats().parityHitRate(), 0.0);
}

} // namespace
} // namespace citadel
