/**
 * @file
 * Kernel-equivalence property suite (DESIGN.md section 14): every
 * dispatched implementation of the hot kernels — xorFold, xorFoldN,
 * CRC-32 bulk update, the sampler's zero-cell scan, the draw-byte
 * fill, the lane Bernoulli draw — must be bit-identical to its scalar
 * proof over random lengths, all byte misalignments, multi-source
 * counts, mid-stream state splits, mixed cell thresholds, fill lengths
 * on both sides of every segment and round boundary, and draw bounds
 * at both no-draw ends. The dispatch layer itself is
 * tested too: forced modes resolve to the expected paths, the epoch
 * invalidates cached pointers, and every mode produces the same bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "common/rng.h"
#include "common/xor_fold.h"
#include "ecc/crc32.h"

namespace citadel {
namespace {

std::vector<u8>
randomBytes(Rng &rng, std::size_t n)
{
    std::vector<u8> v(n);
    for (auto &b : v)
        b = static_cast<u8>(rng.next());
    return v;
}

/** Restores the dispatch mode on scope exit so tests cannot leak a
 *  forced mode into later tests in the same process. */
class KernelModeGuard
{
  public:
    KernelModeGuard() : saved_(activeKernelMode()) {}
    ~KernelModeGuard() { setKernelMode(saved_); }

  private:
    KernelMode saved_;
};

/** Whether Auto should resolve to the AVX2 recompiles on this host. */
bool
hostHasAvx2()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

/** Whether this host runs the zero-cell scan's AVX-512 entry. */
bool
hostHasAvx512()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx512f") != 0;
#else
    return false;
#endif
}

// The interesting lengths around every internal boundary: empty, the
// sub-u64 tail, the u64/32-byte/64-byte lane splits, and multi-lane
// runs well past the unrolled main loop.
const std::size_t kLengths[] = {0,  1,  7,   8,   9,   31,  32,  33,
                                63, 64, 65,  96,  127, 128, 129, 200,
                                255, 256, 257, 511, 512, 1000};

TEST(Kernels, XorFoldVectorMatchesScalarAcrossLengths)
{
    Rng rng(1);
    for (std::size_t n = 0; n <= 300; ++n) {
        const auto src = randomBytes(rng, n);
        auto a = randomBytes(rng, n);
        auto b = a;
        xorFoldScalar(a.data(), src.data(), n);
        xorFoldVector(b.data(), src.data(), n);
        ASSERT_EQ(a, b) << "length " << n;
    }
}

TEST(Kernels, XorFoldVectorAtUnalignedOffsets)
{
    Rng rng(2);
    const std::size_t kLen = 200; // crosses the 64-byte unrolled loop
    const auto src_buf = randomBytes(rng, kLen + 8);
    for (std::size_t doff = 0; doff < 8; ++doff)
        for (std::size_t soff = 0; soff < 8; ++soff) {
            auto a = randomBytes(rng, kLen + 8);
            auto b = a;
            xorFoldScalar(a.data() + doff, src_buf.data() + soff, kLen);
            xorFoldVector(b.data() + doff, src_buf.data() + soff, kLen);
            ASSERT_EQ(a, b) << "dst+" << doff << " src+" << soff;
        }
}

TEST(Kernels, XorFoldNMatchesSequentialScalarFolds)
{
    Rng rng(3);
    for (std::size_t k = 2; k <= 12; ++k)
        for (const std::size_t n : kLengths) {
            std::vector<std::vector<u8>> lines;
            std::vector<const u8 *> srcs;
            for (std::size_t i = 0; i < k; ++i) {
                lines.push_back(randomBytes(rng, n));
                srcs.push_back(lines.back().data());
            }
            auto want = randomBytes(rng, n);
            auto got_scalar = want;
            auto got_vector = want;
            for (const auto &line : lines)
                xorFoldScalar(want.data(), line.data(), n);
            xorFoldNScalar(got_scalar.data(), srcs.data(), k, n);
            xorFoldNVector(got_vector.data(), srcs.data(), k, n);
            ASSERT_EQ(want, got_scalar) << "k=" << k << " n=" << n;
            ASSERT_EQ(want, got_vector) << "k=" << k << " n=" << n;
        }
}

TEST(Kernels, XorFoldNAtUnalignedOffsets)
{
    Rng rng(4);
    const std::size_t kLen = 200;
    const std::size_t k = 5;
    std::vector<std::vector<u8>> lines;
    for (std::size_t i = 0; i < k; ++i)
        lines.push_back(randomBytes(rng, kLen + 8));
    for (std::size_t doff = 0; doff < 8; ++doff)
        for (std::size_t soff = 0; soff < 8; ++soff) {
            std::vector<const u8 *> srcs;
            for (const auto &line : lines)
                srcs.push_back(line.data() + soff);
            auto want = randomBytes(rng, kLen + 8);
            auto got = want;
            for (const u8 *s : srcs)
                xorFoldScalar(want.data() + doff, s, kLen);
            xorFoldNVector(got.data() + doff, srcs.data(), k, kLen);
            ASSERT_EQ(want, got) << "dst+" << doff << " src+" << soff;
        }
}

TEST(Kernels, DispatchResolvesForcedModes)
{
    KernelModeGuard guard;
    const u64 epoch0 = kernelModeEpoch();

    setKernelMode(KernelMode::Scalar);
    EXPECT_EQ(activeKernelMode(), KernelMode::Scalar);
    EXPECT_STREQ(xorKernelOps().path, "scalar-u64");
    EXPECT_GT(kernelModeEpoch(), epoch0);

    // Vector is the portable body on every host; Auto takes the AVX2
    // recompile where the CPU has it.
    setKernelMode(KernelMode::Vector);
    EXPECT_EQ(activeKernelMode(), KernelMode::Vector);
    EXPECT_STREQ(xorKernelOps().path, "vector32");

    setKernelMode(KernelMode::Auto);
    EXPECT_STREQ(xorKernelOps().path,
                 hostHasAvx2() ? "vector32-avx2" : "vector32");
}

TEST(Kernels, EveryDispatchModeProducesIdenticalBytes)
{
    KernelModeGuard guard;
    Rng rng(5);
    const std::size_t n = 257;
    const std::size_t k = 7;
    const auto src = randomBytes(rng, n);
    std::vector<std::vector<u8>> lines;
    std::vector<const u8 *> srcs;
    for (std::size_t i = 0; i < k; ++i) {
        lines.push_back(randomBytes(rng, n));
        srcs.push_back(lines.back().data());
    }
    const auto init = randomBytes(rng, n);

    std::vector<u8> fold_ref, foldn_ref;
    u32 crc_ref = 0;
    for (const KernelMode mode :
         {KernelMode::Scalar, KernelMode::Vector, KernelMode::Auto}) {
        setKernelMode(mode);
        auto fold_out = init;
        xorFold(fold_out.data(), src.data(), n); // dispatched entry
        auto foldn_out = init;
        xorFoldN(foldn_out.data(), srcs.data(), k, n);
        const u32 crc_out = Crc32::compute(src);
        if (mode == KernelMode::Scalar) {
            fold_ref = fold_out;
            foldn_ref = foldn_out;
            crc_ref = crc_out;
        } else {
            EXPECT_EQ(fold_out, fold_ref) << kernelModeName(mode);
            EXPECT_EQ(foldn_out, foldn_ref) << kernelModeName(mode);
            EXPECT_EQ(crc_out, crc_ref) << kernelModeName(mode);
        }
    }
}

TEST(Kernels, Crc32HwMatchesSlice8AcrossLengths)
{
    Rng rng(6);
    // 0..300 covers the <64-byte slice8 fallback, the exact fold-by-4
    // threshold, and every 16-byte fold-by-1 tail split around it.
    for (std::size_t n = 0; n <= 300; ++n) {
        const auto buf = randomBytes(rng, n);
        const u32 slice8 = Crc32::updateSlice8(Crc32::begin(), buf);
        const u32 hw = Crc32::updateHw(Crc32::begin(), buf);
        ASSERT_EQ(hw, slice8) << "length " << n;
        ASSERT_EQ(Crc32::finish(slice8), Crc32::referenceCompute(buf))
            << "length " << n;
    }
}

TEST(Kernels, Crc32HwAtUnalignedOffsets)
{
    Rng rng(7);
    const std::size_t kLen = 257;
    const auto buf = randomBytes(rng, kLen + 8);
    for (std::size_t off = 0; off < 8; ++off) {
        const std::span<const u8> view(buf.data() + off, kLen);
        ASSERT_EQ(Crc32::updateHw(Crc32::begin(), view),
                  Crc32::updateSlice8(Crc32::begin(), view))
            << "offset " << off;
    }
}

TEST(Kernels, Crc32HwMidStateSplits)
{
    Rng rng(8);
    const auto buf = randomBytes(rng, 1000);
    const u32 whole = Crc32::updateSlice8(Crc32::begin(), buf);
    for (const std::size_t split : {1u, 63u, 64u, 65u, 128u, 500u, 999u}) {
        const std::span<const u8> head(buf.data(), split);
        const std::span<const u8> tail(buf.data() + split,
                                       buf.size() - split);
        // hw-then-hw, hw-then-slice8, slice8-then-hw: any interleaving
        // of the two implementations must agree, since a batch can mix
        // dispatch paths across threads.
        EXPECT_EQ(Crc32::updateHw(Crc32::updateHw(Crc32::begin(), head),
                                  tail),
                  whole)
            << split;
        EXPECT_EQ(Crc32::updateSlice8(
                      Crc32::updateHw(Crc32::begin(), head), tail),
                  whole)
            << split;
        EXPECT_EQ(Crc32::updateHw(
                      Crc32::updateSlice8(Crc32::begin(), head), tail),
                  whole)
            << split;
    }
}

TEST(Kernels, Crc32DispatchFollowsMode)
{
    KernelModeGuard guard;
    Rng rng(9);
    const auto buf = randomBytes(rng, 500);

    setKernelMode(KernelMode::Scalar);
    EXPECT_STREQ(Crc32::activePathName(), "slice8");
    const u32 scalar_crc = Crc32::update(Crc32::begin(), buf);

    setKernelMode(KernelMode::Auto);
    if (Crc32::hwAvailable())
        EXPECT_STRNE(Crc32::activePathName(), "slice8");
    else
        EXPECT_STREQ(Crc32::activePathName(), "slice8");
    EXPECT_EQ(Crc32::update(Crc32::begin(), buf), scalar_crc);
}

/** A cell threshold mix for the zero-cell scan: mostly rare hits (a
 *  paper-rate cell), with cells that hit about half the time, both
 *  no-draw sentinels and the 2^53 limit that never hits. */
std::vector<u64>
scanThresholds(Rng &rng, std::size_t n)
{
    std::vector<u64> zm(n);
    for (u64 &z : zm) {
        switch (rng.below(16)) {
          case 0:
            z = kZeroScanSkip;
            break;
          case 1:
            z = kZeroScanHitAll;
            break;
          case 2:
            z = kZeroMaxLimit;
            break;
          case 3:
          case 4:
            z = Rng::unitThreshold(0.5);
            break;
          default:
            z = Rng::unitThreshold(std::exp(-0.004 * rng.uniform()));
            break;
        }
    }
    return zm;
}

TEST(Kernels, ZeroScanMatchesScalarStreamsOnEveryEntry)
{
    // Every scan entry this host runs, not only the one Auto picks,
    // against kLanes plain Rng::next streams stepped cell by cell: the
    // same stop, hit lanes and raw draws at every stop, and the same
    // generator states after it.
    constexpr unsigned kLanes = RngLanes::kLanes;
    for (const ZeroScanOps &entry : zeroScanEntries()) {
        SCOPED_TRACE(entry.path);
        Rng gen(31);
        u64 hits = 0;
        u64 multiLaneHits = 0;
        for (int round = 0; round < 200; ++round) {
            std::vector<u64> zm = scanThresholds(gen, 64);
            std::array<Rng, kLanes> want;
            for (Rng &rng : want)
                rng = Rng(gen.next());
            // Put some thresholds exactly at, or one below, a lane's
            // draw for that cell (the scan takes one draw per lane per
            // drawing cell, here with nothing drawn between stops): at
            // the threshold the lane must not hit, one below it must.
            std::array<Rng, kLanes> ahead = want;
            for (u64 &z : zm) {
                if (z > kZeroMaxLimit)
                    continue;
                const unsigned lane =
                    static_cast<unsigned>(gen.below(kLanes));
                for (unsigned l = 0; l < kLanes; ++l) {
                    const u64 top = ahead[l].next() >> 11;
                    if (l == lane && top > 0 && gen.below(4) == 0)
                        z = top - gen.below(2);
                }
            }
            RngLanes lanes;
            for (unsigned l = 0; l < kLanes; ++l)
                lanes.load(l, want[l]);
            u32 first = 0;
            while (first < zm.size()) {
                const u32 n = static_cast<u32>(zm.size()) - first;
                ZeroScanHit hit;
                const u32 stop = entry.scan(lanes, zm.data() + first, n, hit);
                // The expected stop, cell by cell.
                u32 cell = 0;
                u32 wantLanes = 0;
                std::array<u64, kLanes> draws{};
                for (; cell < n; ++cell) {
                    const u64 z = zm[first + cell];
                    if (z == kZeroScanSkip)
                        continue;
                    if (z == kZeroScanHitAll) {
                        wantLanes = (1u << kLanes) - 1;
                        break;
                    }
                    for (unsigned l = 0; l < kLanes; ++l) {
                        draws[l] = want[l].next();
                        if ((draws[l] >> 11) > z)
                            wantLanes |= 1u << l;
                    }
                    if (wantLanes != 0)
                        break;
                }
                ASSERT_EQ(stop, cell) << "round " << round;
                for (unsigned l = 0; l < kLanes; ++l) {
                    Rng got(0);
                    lanes.store(l, got);
                    ASSERT_EQ(got.saveState(), want[l].saveState())
                        << "round " << round << " lane " << l;
                }
                if (stop == n)
                    break;
                ASSERT_EQ(hit.lanes, wantLanes) << "round " << round;
                if (zm[first + stop] != kZeroScanHitAll) {
                    for (unsigned l = 0; l < kLanes; ++l)
                        ASSERT_EQ(hit.draws[l], draws[l]) << "lane " << l;
                    ++hits;
                    multiLaneHits += std::popcount(hit.lanes) > 1;
                }
                first += stop + 1;
            }
        }
        // Both a lone lane and several lanes hitting one cell occur.
        EXPECT_GT(hits - multiLaneHits, 100u);
        EXPECT_GT(multiLaneHits, 100u);
    }
}

TEST(Kernels, ZeroScanDispatchFollowsMode)
{
    // Each mode resolves to its entry: Scalar and Vector to the first
    // two, Auto to the widest lowering the host runs.
    const std::span<const ZeroScanOps> entries = zeroScanEntries();
    std::vector<std::string> paths;
    for (const ZeroScanOps &entry : entries)
        paths.emplace_back(entry.path);
    std::vector<std::string> want{"scalar-rng", "vector2x4x64"};
    if (hostHasAvx2())
        want.emplace_back("vector2x4x64-avx2");
    if (hostHasAvx512())
        want.emplace_back("vector8x64-avx512");
    EXPECT_EQ(paths, want);

    KernelModeGuard guard;
    setKernelMode(KernelMode::Scalar);
    EXPECT_STREQ(zeroScanOps().path, "scalar-rng");
    setKernelMode(KernelMode::Vector);
    EXPECT_STREQ(zeroScanOps().path, "vector2x4x64");
    setKernelMode(KernelMode::Auto);
    EXPECT_STREQ(zeroScanOps().path, want.back().c_str());
}

TEST(Kernels, FillDrawBytesMatchesSerialLoopOnEveryEntry)
{
    // Every fill entry this host runs against out[i] = u8(rng.next()):
    // the same bytes, no byte written past n and the same generator
    // state after it. The lengths sit on both sides of the serial
    // cutoff and of round and segment boundaries, up to three full
    // rounds, with odd tails and unaligned destinations.
    constexpr std::size_t kS = kFillSegment;
    constexpr std::size_t kRound = RngLanes::kLanes * kS;
    constexpr std::size_t kMin = kFillMinSegments * kS;
    const std::size_t lengths[] = {
        0,           1,          7,           8,
        9,           kS - 1,     kS + 3,      kMin - 1,
        kMin,        kMin + 1,   kMin + 29,   kRound - 1,
        kRound,      kRound + kS - 1,         kRound + kMin,
        kRound + kMin + 13,      2 * kRound,  2 * kRound + 7,
        2 * kRound + kMin + kS - 1,           3 * kRound};
    constexpr std::size_t kPad = 16;
    for (const FillDrawBytesOps &entry : fillDrawBytesEntries()) {
        SCOPED_TRACE(entry.path);
        for (const u64 seed : {u64{42}, u64{0}, u64{0xD1CE}}) {
            for (const std::size_t n : lengths) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " n " +
                             std::to_string(n));
                const std::size_t offset = n % 8;
                Rng want(seed);
                std::vector<u8> expect(n);
                for (u8 &b : expect)
                    b = static_cast<u8>(want.next());
                std::vector<u8> buf(offset + n + kPad, 0xA5);
                Rng got(seed);
                entry.fill(got, buf.data() + offset, n);
                ASSERT_TRUE(std::equal(expect.begin(), expect.end(),
                                       buf.begin() +
                                           static_cast<long>(offset)));
                for (std::size_t i = 0; i < kPad; ++i)
                    ASSERT_EQ(buf[offset + n + i], 0xA5) << "pad " << i;
                ASSERT_EQ(got.saveState(), want.saveState());
            }
        }
    }
}

TEST(Kernels, FillDrawBytesDispatchFollowsMode)
{
    // The fill's entries are the zero-cell scan's paths, in its order,
    // and each mode resolves to the same place.
    const std::span<const FillDrawBytesOps> entries = fillDrawBytesEntries();
    const std::span<const ZeroScanOps> scans = zeroScanEntries();
    ASSERT_EQ(entries.size(), scans.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        EXPECT_STREQ(entries[i].path, scans[i].path);

    KernelModeGuard guard;
    for (const KernelMode mode :
         {KernelMode::Scalar, KernelMode::Vector, KernelMode::Auto}) {
        setKernelMode(mode);
        EXPECT_STREQ(fillDrawBytesOps().path, zeroScanOps().path)
            << kernelModeName(mode);
    }
}

TEST(Kernels, ChanceLanesMatchesScalarOnEveryEntry)
{
    // Every lane Bernoulli entry this host runs against per-lane
    // Rng::chance(Odds): the same bit per lane and round, no byte
    // written past the rounds, and the same lane states after. Bounds
    // 0 and 2^53 take no draw; 1 and 2^53 - 1 are the drawing
    // extremes. With L lanes in use the spare lanes hold a zero state,
    // as when fewer than eight cores warm the LLC, and their bits are
    // ignored.
    constexpr u64 kTop = u64{1} << 53;
    const Rng::Odds odds[] = {{0}, {1}, {kTop - 1}, {kTop},
                              Rng::odds(0.3), Rng::odds(0.05)};
    const std::size_t rounds[] = {0, 1, 37, 256, 3 * 256 + 5};
    constexpr std::size_t kPad = 16;
    for (const ChanceLanesOps &entry : chanceLanesEntries()) {
        SCOPED_TRACE(entry.path);
        for (const unsigned used : {1u, 2u, 8u}) {
            const u32 mask = (1u << used) - 1;
            for (const Rng::Odds o : odds) {
                for (const std::size_t n : rounds) {
                    SCOPED_TRACE("lanes " + std::to_string(used) +
                                 " bound " + std::to_string(o.bound) +
                                 " rounds " + std::to_string(n));
                    RngLanes lanes{};
                    std::array<Rng, RngLanes::kLanes> want;
                    for (unsigned l = 0; l < used; ++l) {
                        want[l] = Rng(mix64(l + 1000 * n + o.bound));
                        lanes.load(l, want[l]);
                    }
                    std::vector<u8> got(n + kPad, 0xA5);
                    entry.draw(lanes, o, got.data(), n);
                    for (std::size_t r = 0; r < n; ++r) {
                        u32 bits = 0;
                        for (unsigned l = 0; l < used; ++l)
                            bits |= static_cast<u32>(want[l].chance(o)) << l;
                        ASSERT_EQ(got[r] & mask, bits) << "round " << r;
                    }
                    for (std::size_t i = 0; i < kPad; ++i)
                        ASSERT_EQ(got[n + i], 0xA5) << "pad " << i;
                    for (unsigned l = 0; l < used; ++l) {
                        Rng end(0);
                        lanes.store(l, end);
                        ASSERT_EQ(end.saveState(), want[l].saveState())
                            << "lane " << l;
                    }
                }
            }
        }
        // A bound exactly at one lane's draw >> 11 in some round, where
        // chance() is false, and one above it, where it is true.
        Rng gen(77);
        for (int trial = 0; trial < 64; ++trial) {
            std::array<Rng, RngLanes::kLanes> want;
            RngLanes lanes;
            for (unsigned l = 0; l < RngLanes::kLanes; ++l) {
                want[l] = Rng(gen.next());
                lanes.load(l, want[l]);
            }
            const unsigned lane =
                static_cast<unsigned>(gen.below(RngLanes::kLanes));
            const std::size_t n = 1 + gen.below(40);
            Rng peek = want[lane];
            for (std::size_t r = gen.below(n); r > 0; --r)
                peek.next();
            const Rng::Odds o{(peek.next() >> 11) + (trial & 1)};
            if (o.bound - 1 >= kTop - 1)
                continue;
            std::vector<u8> got(n);
            entry.draw(lanes, o, got.data(), n);
            for (std::size_t r = 0; r < n; ++r) {
                u32 bits = 0;
                for (unsigned l = 0; l < RngLanes::kLanes; ++l)
                    bits |= static_cast<u32>(want[l].chance(o)) << l;
                ASSERT_EQ(got[r], bits) << "trial " << trial << " round " << r;
            }
        }
    }
}

TEST(Kernels, ChanceLanesDispatchFollowsMode)
{
    // The lane Bernoulli entries are the zero-cell scan's paths, in
    // its order, and each mode resolves to the same place.
    const std::span<const ChanceLanesOps> entries = chanceLanesEntries();
    const std::span<const ZeroScanOps> scans = zeroScanEntries();
    ASSERT_EQ(entries.size(), scans.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        EXPECT_STREQ(entries[i].path, scans[i].path);

    KernelModeGuard guard;
    for (const KernelMode mode :
         {KernelMode::Scalar, KernelMode::Vector, KernelMode::Auto}) {
        setKernelMode(mode);
        EXPECT_STREQ(chanceLanesOps().path, zeroScanOps().path)
            << kernelModeName(mode);
    }
}

} // namespace
} // namespace citadel
