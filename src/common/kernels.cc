#include "common/kernels.h"

#include <atomic>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "common/knobs.h"
#include "common/xor_fold.h"

namespace citadel {

namespace {

/** Four and eight u64 lanes, one per generator of an RngLanes. Like
 *  XorVec (common/xor_fold.h) they never cross a call boundary: the
 *  scan loads and stores RngLanes through memcpy. */
typedef u64 U64x4 __attribute__((vector_size(32)));
typedef u64 U64x8 __attribute__((vector_size(64)));

static_assert(sizeof(U64x8) == sizeof(RngLanes::s[0]));

/**
 * The zero-cell scan as vector code, one body for every lowering: the
 * eight lanes are kGroups groups of V (two U64x4 or one U64x8), each
 * state word one V per group, and xoshiroStep steps every group per
 * cell. `Hit` is the ISA's any-lane test, built from the cell's draws
 * and zeroMax: any() says whether some lane's draw >> 11 exceeds
 * zeroMax, lanes() which ones.
 */
template <typename V, typename Hit>
[[gnu::always_inline]] inline u32
zeroScanBody(RngLanes &lanes, const u64 *zeroMax, u32 n, ZeroScanHit &hit)
{
    constexpr unsigned kWidth = sizeof(V) / sizeof(u64);
    constexpr unsigned kGroups = RngLanes::kLanes / kWidth;
    V s0[kGroups];
    V s1[kGroups];
    V s2[kGroups];
    V s3[kGroups];
#pragma GCC unroll 2
    for (unsigned g = 0; g < kGroups; ++g) {
        std::memcpy(&s0[g], &lanes.s[0][g * kWidth], sizeof(V));
        std::memcpy(&s1[g], &lanes.s[1][g * kWidth], sizeof(V));
        std::memcpy(&s2[g], &lanes.s[2][g * kWidth], sizeof(V));
        std::memcpy(&s3[g], &lanes.s[3][g * kWidth], sizeof(V));
    }
    u32 i = 0;
    for (; i < n; ++i) {
        const u64 zm = zeroMax[i];
        if (zm > kZeroMaxLimit) [[unlikely]] {
            if (zm == kZeroScanSkip)
                continue;
            hit.lanes = (1u << RngLanes::kLanes) - 1;
            break;
        }
        V draw[kGroups];
#pragma GCC unroll 2
        for (unsigned g = 0; g < kGroups; ++g)
            xoshiroStep(s0[g], s1[g], s2[g], s3[g], draw[g]);
        const Hit test(draw, zm);
        if (test.any()) [[unlikely]] {
            hit.lanes = test.lanes();
            std::memcpy(hit.draws, draw, sizeof(draw));
            break;
        }
    }
#pragma GCC unroll 2
    for (unsigned g = 0; g < kGroups; ++g) {
        std::memcpy(&lanes.s[0][g * kWidth], &s0[g], sizeof(V));
        std::memcpy(&lanes.s[1][g * kWidth], &s1[g], sizeof(V));
        std::memcpy(&lanes.s[2][g * kWidth], &s2[g], sizeof(V));
        std::memcpy(&lanes.s[3][g * kWidth], &s3[g], sizeof(V));
    }
    return i;
}

/**
 * The portable hit test over two U64x4 groups: a lane hits when
 * zeroMax - (draw >> 11) is negative. Both are at most 2^53, so the
 * difference wraps exactly when the draw exceeds zeroMax, and its top
 * bit is the hit flag (a subtract, which every SIMD level has, where a
 * 64-bit unsigned compare is not). any() ORs the groups and gathers
 * every lane's top bit into lane 0 with two shuffle-ORs, so the common
 * no-hit cell costs one branch on one extracted word.
 */
struct SignHit
{
    U64x4 diff[2];

    [[gnu::always_inline]] SignHit(const U64x4 (&draw)[2], u64 zm)
        : diff{zm - (draw[0] >> 11), zm - (draw[1] >> 11)}
    {
    }

    [[gnu::always_inline]] bool
    any() const
    {
        U64x4 a = diff[0] | diff[1];
        a |= __builtin_shufflevector(a, a, 2, 3, 0, 1);
        a |= __builtin_shufflevector(a, a, 1, 0, 3, 2);
        return (a[0] >> 63) != 0;
    }

    [[gnu::always_inline]] u32
    lanes() const
    {
        u32 mask = 0;
        for (unsigned l = 0; l < RngLanes::kLanes; ++l)
            mask |= static_cast<u32>(diff[l / 4][l % 4] >> 63) << l;
        return mask;
    }
};

u32
zeroScanVector(RngLanes &lanes, const u64 *zeroMax, u32 n,
               ZeroScanHit &hit)
{
    return zeroScanBody<U64x4, SignHit>(lanes, zeroMax, n, hit);
}

/** The scalar proof: each lane moved into an Rng and stepped through
 *  Rng::next by zeroScanRng. */
u32
zeroScanScalar(RngLanes &lanes, const u64 *zeroMax, u32 n,
               ZeroScanHit &hit)
{
    Rng rngs[RngLanes::kLanes];
    for (unsigned l = 0; l < RngLanes::kLanes; ++l)
        lanes.store(l, rngs[l]);
    const u32 stop =
        zeroScanRng<RngLanes::kLanes>(rngs, zeroMax, n, hit);
    for (unsigned l = 0; l < RngLanes::kLanes; ++l)
        lanes.load(l, rngs[l]);
    return stop;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

/** The same scan body lowered with AVX2: each U64x4 operation is one
 *  ymm instruction instead of two SSE2 halves. */
__attribute__((target("avx2"))) u32
zeroScanVectorAvx2(RngLanes &lanes, const u64 *zeroMax, u32 n,
                   ZeroScanHit &hit)
{
    return zeroScanBody<U64x4, SignHit>(lanes, zeroMax, n, hit);
}

/**
 * The AVX-512 hit test over one U64x8 group: one unsigned compare
 * into a mask register, whose eight bits are the hit lanes. Not
 * always_inline: GCC would inline it into the target-less
 * zeroScanBody and reject the AVX-512 intrinsic there; flatten on the
 * entry inlines it once the body sits in an AVX-512 function.
 */
struct MaskHit
{
    __mmask8 mask;

    [[gnu::target("avx512f")]] MaskHit(const U64x8 (&draw)[1], u64 zm)
        : mask(_mm512_cmpgt_epu64_mask(
              reinterpret_cast<__m512i>(draw[0] >> 11),
              _mm512_set1_epi64(static_cast<long long>(zm))))
    {
    }

    bool any() const { return mask != 0; }
    u32 lanes() const { return mask; }
};

/** The scan body over all eight lanes as one U64x8 group, lowered
 *  with AVX-512F: the rotates are vprolq and the hit test is MaskHit. */
__attribute__((target("avx512f"), flatten)) u32
zeroScanVectorAvx512(RngLanes &lanes, const u64 *zeroMax, u32 n,
                     ZeroScanHit &hit)
{
    return zeroScanBody<U64x8, MaskHit>(lanes, zeroMax, n, hit);
}

/**
 * Same portable vector-extension bodies, recompiled with AVX2 codegen:
 * without -mavx2 the 32-byte XorVec is emulated as two SSE2 halves,
 * which GCC's auto-vectorized u64 loop already matches; compiling the
 * identical source under target("avx2") lowers each lane to one
 * vpxor/vmovdqu and roughly doubles L1-resident throughput. Selected
 * at runtime via __builtin_cpu_supports — same bytes in, same bytes
 * out, only the instruction encoding differs.
 */
__attribute__((target("avx2"))) void
xorFoldVectorAvx2(u8 *dst, const u8 *src, std::size_t n)
{
    xorFoldVector(dst, src, n);
}

__attribute__((target("avx2"))) void
xorFoldNVectorAvx2(u8 *dst, const u8 *const *srcs, std::size_t k,
                   std::size_t n)
{
    xorFoldNVector(dst, srcs, k, n);
}

bool
haveAvx2()
{
    static const bool avail = __builtin_cpu_supports("avx2") != 0;
    return avail;
}

bool
haveAvx512()
{
    static const bool avail = __builtin_cpu_supports("avx512f") != 0;
    return avail;
}

#else

bool
haveAvx2()
{
    return false;
}

#endif

std::atomic<u64> gEpoch{0};

KernelMode &
modeStorage()
{
    static KernelMode mode = requestedKernelMode();
    return mode;
}

} // namespace

const char *
kernelModeName(KernelMode mode)
{
    return knobSpec(Knob::Kernel).choices[static_cast<u8>(mode)].data();
}

KernelMode
requestedKernelMode()
{
    return static_cast<KernelMode>(knobChoice(Knob::Kernel));
}

KernelMode
activeKernelMode()
{
    return modeStorage();
}

void
setKernelMode(KernelMode mode)
{
    modeStorage() = mode;
    gEpoch.fetch_add(1, std::memory_order_release);
}

u64
kernelModeEpoch()
{
    return gEpoch.load(std::memory_order_acquire);
}

namespace {

/**
 * The ops table for the active mode. Vector forces the portable
 * vector-extension body (which degrades to plain word ops on
 * SIMD-less targets, so it is never worse than the scalar proof), so
 * that body can be checked on any host. Auto takes `best`, the widest
 * lowering the CPU runs. The cache is thread_local per Ops type so MC
 * workers re-resolve without racing.
 */
template <typename Ops>
const Ops &
resolveOps(const Ops &scalar, const Ops &vector, const Ops &best)
{
    thread_local const Ops *resolved = nullptr;
    thread_local u64 resolvedEpoch = ~u64{0};
    const u64 epoch = kernelModeEpoch();
    if (resolved == nullptr || resolvedEpoch != epoch) {
        const KernelMode mode = activeKernelMode();
        if (mode == KernelMode::Scalar)
            resolved = &scalar;
        else if (mode == KernelMode::Vector)
            resolved = &vector;
        else
            resolved = &best;
        resolvedEpoch = epoch;
    }
    return *resolved;
}

} // namespace

const XorKernelOps &
xorKernelOps()
{
    static constexpr XorKernelOps kScalar{&xorFoldScalar, &xorFoldNScalar,
                                          "scalar-u64"};
    static constexpr XorKernelOps kVector{&xorFoldVector, &xorFoldNVector,
                                          "vector32"};
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    static constexpr XorKernelOps kVectorAvx2{
        &xorFoldVectorAvx2, &xorFoldNVectorAvx2, "vector32-avx2"};
#else
    static constexpr const XorKernelOps &kVectorAvx2 = kVector;
#endif
    return resolveOps(kScalar, kVector, haveAvx2() ? kVectorAvx2 : kVector);
}

std::span<const ZeroScanOps>
zeroScanEntries()
{
    static const std::vector<ZeroScanOps> entries = [] {
        std::vector<ZeroScanOps> e{{&zeroScanScalar, "scalar-rng"},
                                   {&zeroScanVector, "vector2x4x64"}};
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
        if (haveAvx2())
            e.push_back({&zeroScanVectorAvx2, "vector2x4x64-avx2"});
        if (haveAvx512())
            e.push_back({&zeroScanVectorAvx512, "vector8x64-avx512"});
#endif
        return e;
    }();
    return entries;
}

const ZeroScanOps &
zeroScanOps()
{
    const std::span<const ZeroScanOps> entries = zeroScanEntries();
    return resolveOps(entries[0], entries[1], entries.back());
}

} // namespace citadel
