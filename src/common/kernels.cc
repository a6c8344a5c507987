#include "common/kernels.h"

#include <atomic>
#include <cstring>

#include "common/knobs.h"
#include "common/xor_fold.h"

namespace citadel {

namespace {

/** Four u64 lanes, one per generator of an RngLanes. Like XorVec
 *  (common/xor_fold.h) it never crosses a call boundary: the scan
 *  loads and stores RngLanes through memcpy. */
typedef u64 U64x4 __attribute__((vector_size(32)));

static_assert(sizeof(U64x4) == sizeof(RngLanes::s[0]));

/**
 * The 4-lane zero-cell scan as portable vector code: the four state
 * words are four U64x4 registers and xoshiroStep steps all lanes at
 * once. A lane hits when zeroMax - (draw >> 11) is negative: both are
 * at most 2^53, so the difference wraps exactly when the draw exceeds
 * zeroMax, and its top bit is the hit flag (a subtract, which every
 * SIMD level has, where a 64-bit unsigned compare is not). Two
 * shuffle-ORs gather every lane's top bit into lane 0, so the common
 * no-hit cell costs one branch on one extracted word.
 */
[[gnu::always_inline]] inline u32
zeroScanVectorBody(RngLanes &lanes, const u64 *zeroMax, u32 n,
                   ZeroScanHit &hit)
{
    U64x4 s0;
    U64x4 s1;
    U64x4 s2;
    U64x4 s3;
    std::memcpy(&s0, lanes.s[0], sizeof(U64x4));
    std::memcpy(&s1, lanes.s[1], sizeof(U64x4));
    std::memcpy(&s2, lanes.s[2], sizeof(U64x4));
    std::memcpy(&s3, lanes.s[3], sizeof(U64x4));
    u32 i = 0;
    for (; i < n; ++i) {
        const u64 zm = zeroMax[i];
        if (zm > kZeroMaxLimit) [[unlikely]] {
            if (zm == kZeroScanSkip)
                continue;
            hit.lanes = (1u << RngLanes::kLanes) - 1;
            break;
        }
        U64x4 draw;
        xoshiroStep(s0, s1, s2, s3, draw);
        const U64x4 diff = zm - (draw >> 11);
        U64x4 any = diff | __builtin_shufflevector(diff, diff, 2, 3, 0, 1);
        any |= __builtin_shufflevector(any, any, 1, 0, 3, 2);
        if ((any[0] >> 63) != 0) [[unlikely]] {
            const U64x4 sign = diff >> 63;
            hit.lanes = static_cast<u32>(sign[0] | sign[1] << 1 |
                                         sign[2] << 2 | sign[3] << 3);
            std::memcpy(hit.draws, &draw, sizeof(U64x4));
            break;
        }
    }
    std::memcpy(lanes.s[0], &s0, sizeof(U64x4));
    std::memcpy(lanes.s[1], &s1, sizeof(U64x4));
    std::memcpy(lanes.s[2], &s2, sizeof(U64x4));
    std::memcpy(lanes.s[3], &s3, sizeof(U64x4));
    return i;
}

u32
zeroScanVector(RngLanes &lanes, const u64 *zeroMax, u32 n,
               ZeroScanHit &hit)
{
    return zeroScanVectorBody(lanes, zeroMax, n, hit);
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
    return zeroScanVectorBody(lanes, zeroMax, n, hit);
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
 * that body can be checked on any host. Auto takes the widest safe
 * lowering: the AVX2 recompile where the CPU has it, otherwise the
 * portable body. The cache is thread_local per Ops type so MC workers
 * re-resolve without racing.
 */
template <typename Ops>
const Ops &
resolveOps(const Ops &scalar, const Ops &vector, const Ops &vectorAvx2)
{
    thread_local const Ops *resolved = nullptr;
    thread_local u64 resolvedEpoch = ~u64{0};
    const u64 epoch = kernelModeEpoch();
    if (resolved == nullptr || resolvedEpoch != epoch) {
        const KernelMode mode = activeKernelMode();
        if (mode == KernelMode::Scalar)
            resolved = &scalar;
        else if (mode == KernelMode::Vector || !haveAvx2())
            resolved = &vector;
        else
            resolved = &vectorAvx2;
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
    return resolveOps(kScalar, kVector, kVectorAvx2);
}

const ZeroScanOps &
zeroScanOps()
{
    static constexpr ZeroScanOps kScalar{&zeroScanScalar, "scalar-rng"};
    static constexpr ZeroScanOps kVector{&zeroScanVector, "vector4x64"};
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    static constexpr ZeroScanOps kVectorAvx2{&zeroScanVectorAvx2,
                                             "vector4x64-avx2"};
#else
    static constexpr const ZeroScanOps &kVectorAvx2 = kVector;
#endif
    return resolveOps(kScalar, kVector, kVectorAvx2);
}

} // namespace citadel
