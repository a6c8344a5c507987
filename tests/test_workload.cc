/**
 * @file
 * Tests for the synthetic workload table and address-stream generator.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <type_traits>
#include <vector>

#include "common/log.h"
#include "common/serialize.h"
#include "sim/workload.h"

namespace citadel {
namespace {

TEST(Workloads, FullSuiteRoster)
{
    // 29 SPEC CPU2006 + 7 PARSEC + 2 BioBench = 38 (Section III-B).
    const auto &all = allBenchmarks();
    EXPECT_EQ(all.size(), 38u);
    std::map<Suite, int> per_suite;
    std::set<std::string> names;
    for (const auto &b : all) {
        ++per_suite[b.suite];
        names.insert(b.name);
    }
    EXPECT_EQ(per_suite[Suite::SpecFp] + per_suite[Suite::SpecInt], 29);
    EXPECT_EQ(per_suite[Suite::Parsec], 7);
    EXPECT_EQ(per_suite[Suite::BioBench], 2);
    EXPECT_EQ(names.size(), 38u) << "duplicate benchmark names";
}

TEST(Workloads, ProfilesAreSane)
{
    for (const auto &b : allBenchmarks()) {
        EXPECT_GT(b.mpki, 0.0) << b.name;
        EXPECT_LT(b.mpki, 100.0) << b.name;
        EXPECT_GE(b.runLength, 1.0) << b.name;
        EXPECT_GE(b.writeFrac, 0.0) << b.name;
        EXPECT_LE(b.writeFrac, 1.0) << b.name;
        EXPECT_GE(b.footprintMB, 16u) << b.name;
    }
}

TEST(Workloads, PaperHighlightsPresent)
{
    // Benchmarks the paper's Fig 15 calls out.
    EXPECT_NO_FATAL_FAILURE(findBenchmark("GemsFDTD"));
    EXPECT_NO_FATAL_FAILURE(findBenchmark("mcf"));
    EXPECT_NO_FATAL_FAILURE(findBenchmark("mummer"));
    EXPECT_NO_FATAL_FAILURE(findBenchmark("tigr"));
    EXPECT_DEATH(findBenchmark("nonexistent"), "unknown benchmark");
}

TEST(Workloads, BioBenchIsReadDominatedAndRandom)
{
    // The property behind Fig 13's low BioBench parity hit rate.
    for (const char *name : {"tigr", "mummer"}) {
        const auto &b = findBenchmark(name);
        EXPECT_LT(b.writeFrac, 0.1) << name;
        EXPECT_LT(b.runLength, 2.0) << name;
        EXPECT_GT(b.mpki, 10.0) << name;
    }
}

TEST(Workloads, SuiteNames)
{
    EXPECT_STREQ(suiteName(Suite::SpecFp), "SPEC-FP");
    EXPECT_STREQ(suiteName(Suite::BioBench), "BIOBENCH");
}

TEST(AddressStream, StaysInCoreRegion)
{
    const auto &b = findBenchmark("mcf");
    const u64 total = (16ull << 30) / 64;
    for (u32 core : {0u, 3u, 7u}) {
        AddressStream s(b, core, total, 42);
        const u64 slice = total / 8;
        for (int i = 0; i < 5000; ++i) {
            const u64 line = s.nextLine().value();
            EXPECT_GE(line, core * slice);
            EXPECT_LT(line, (core + 1) * slice);
        }
    }
}

TEST(AddressStream, Deterministic)
{
    const auto &b = findBenchmark("lbm");
    const u64 total = (16ull << 30) / 64;
    AddressStream a(b, 0, total, 7);
    AddressStream c(b, 0, total, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.nextLine(), c.nextLine());
}

TEST(AddressStream, RunLengthShapesSequentiality)
{
    const u64 total = (16ull << 30) / 64;
    auto sequential_fraction = [&](const char *name) {
        AddressStream s(findBenchmark(name), 0, total, 11);
        u64 prev = s.nextLine().value();
        int seq = 0;
        const int n = 20000;
        for (int i = 0; i < n; ++i) {
            const u64 cur = s.nextLine().value();
            seq += (cur == prev + 1);
            prev = cur;
        }
        return seq / static_cast<double>(n);
    };
    // lbm streams (runLength 32); mummer is near-random (1.2).
    EXPECT_GT(sequential_fraction("lbm"), 0.9);
    EXPECT_LT(sequential_fraction("mummer"), 0.4);
}

TEST(AddressStream, CoversFootprint)
{
    const auto &b = findBenchmark("tigr");
    const u64 total = (16ull << 30) / 64;
    AddressStream s(b, 0, total, 3);
    std::set<LineAddr> seen;
    for (int i = 0; i < 20000; ++i)
        seen.insert(s.nextLine());
    // Near-random stream over a 512MB footprint: mostly unique lines.
    EXPECT_GT(seen.size(), 15000u);
}

/** FNV-1a over the first 2^16 lines a core-3 stream emits. */
u64
streamDigest(const char *name, u64 total_lines)
{
    AddressStream s(findBenchmark(name), 3, total_lines, 1 + 31 * 3);
    ByteSink sink;
    for (int i = 0; i < (1 << 16); ++i)
        sink.putU64(s.nextLine().value());
    return fnv1a(sink.bytes());
}

TEST(AddressStream, PinnedLineDigests)
{
    // Every timing figure replays these streams, so a change to how
    // nextLine() draws its run lengths or advances its cursor must
    // leave each line where it was. tigr's runs (mean 1.5) start a new
    // burst on most lines; lbm's (mean 512) come near the 4096 cap;
    // the last case gives lbm a 4096-line slice, so runs wrap.
    const u64 total = (16ull << 30) / 64;
    EXPECT_EQ(streamDigest("tigr", total), 0x2c8ddcae008e0659ull);
    EXPECT_EQ(streamDigest("mcf", total), 0x03430b928cb6e377ull);
    EXPECT_EQ(streamDigest("lbm", total), 0x632cf6b48bdc0bb0ull);
    EXPECT_EQ(streamDigest("gamess", total), 0x271990e96c98a4ecull);
    EXPECT_EQ(streamDigest("lbm", 8 * 4096), 0x2d0eedd703f08376ull);
}

/** Every byte of a stream's state: its generator, run odds, slice,
 *  cursor and run count. */
bool
sameState(const AddressStream &a, const AddressStream &b)
{
    static_assert(std::has_unique_object_representations_v<AddressStream>);
    return std::memcmp(&a, &b, sizeof(AddressStream)) == 0;
}

/**
 * nextLines() in batches of the given sizes against one line at a
 * time (nextLine()): the same lines, and the same state after every
 * batch.
 */
void
expectBatchesMatchLines(const BenchmarkProfile &p, u32 core, u64 total,
                        const std::vector<std::size_t> &batches)
{
    AddressStream one(p, core, total, 17 + core);
    AddressStream batched(p, core, total, 17 + core);
    std::vector<LineAddr> got;
    u64 line = 0;
    for (const std::size_t n : batches) {
        got.assign(n + 1, LineAddr{~u64{0}});
        batched.nextLines(got.data(), n);
        for (std::size_t i = 0; i < n; ++i, ++line)
            ASSERT_EQ(got[i], one.nextLine()) << p.name << " line " << line;
        ASSERT_EQ(got[n], LineAddr{~u64{0}}) << p.name << " wrote past n";
        ASSERT_TRUE(sameState(batched, one))
            << p.name << " after line " << line;
    }
}

TEST(AddressStream, BatchMatchesPerLine)
{
    // Batches of 0, 1, odd and several-hundred lines, so that batch
    // ends fall inside runs, at run ends and at slice wraps, on every
    // profile and on two cores.
    const std::vector<std::size_t> batches = {0,   1,   255, 256, 3,
                                              0,   777, 1,   511, 4096,
                                              257, 13,  2,   1000};
    const u64 total = (16ull << 30) / 64;
    for (const BenchmarkProfile &p : allBenchmarks()) {
        expectBatchesMatchLines(p, 0, total, batches);
        expectBatchesMatchLines(p, 5, total, batches);
    }
    // A run length of one line takes no run-length draw (odds 1); a
    // mean far past the 4096-line cap ends every run at the cap, and
    // a 4096-line slice makes those runs wrap.
    const BenchmarkProfile single{"single", Suite::SpecInt, 1.0, 1.0, 0.1,
                                  64};
    const BenchmarkProfile capped{"capped", Suite::SpecFp, 1.0, 1e9, 0.1,
                                  512};
    expectBatchesMatchLines(single, 2, total, batches);
    expectBatchesMatchLines(capped, 2, total, batches);
    expectBatchesMatchLines(capped, 2, 8 * 4096, batches);
}

} // namespace
} // namespace citadel
