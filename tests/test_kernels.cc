/**
 * @file
 * Kernel-equivalence property suite (DESIGN.md section 14): every
 * dispatched implementation of the hot kernels — xorFold, xorFoldN,
 * CRC-32 bulk update, the sampler's zero-cell scan — must be
 * bit-identical to its scalar proof over random lengths, all byte
 * misalignments, multi-source counts, mid-stream state splits and
 * mixed cell thresholds. The dispatch layer itself is
 * tested too: forced modes resolve to the expected paths, the epoch
 * invalidates cached pointers, and every mode produces the same bytes.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace citadel
