#include "common/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
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

/** Lane l's fan-out polynomial x^(l * kFillSegment) mod P, word-major
 *  like RngLanes: w[k][l] is its word k. Evaluated at compile time,
 *  each lane's from the last one's by one multiply, which keeps the
 *  evaluation far inside the compilers' constexpr step limits. */
struct FillJumps
{
    alignas(64) u64 w[4][RngLanes::kLanes];
};

constexpr FillJumps kFillJumps = [] {
    FillJumps j{};
    const Gf2Poly segment = xoshiroJumpPoly(kFillSegment);
    Gf2Poly p{1, 0, 0, 0};
    for (unsigned l = 0; l < RngLanes::kLanes; ++l) {
        if (l > 0)
            p = gf2MulModP(p, segment);
        for (std::size_t k = 0; k < 4; ++k)
            j.w[k][l] = p[k];
    }
    return j;
}();

/**
 * One round of the lane fill, one body for every lowering: the eight
 * lanes are kGroups groups of V (two U64x4 or one U64x8), as in
 * zeroScanBody. The fan-out steps `base` 256 times, and each lane xors
 * in the states at its polynomial's set bits (Rng::jump, eight
 * polynomials at once). Then every lane steps kFillSegment times
 * and packs eight steps' low bytes into one word per lane, stored to
 * its segment when the lane is one of the round's `segs`. `base`
 * becomes lane segs - 1's end state, segs * kFillSegment draws on.
 */
template <typename V>
[[gnu::always_inline]] inline void
fillRoundBody(std::array<u64, 4> &base, u8 *out, unsigned segs)
{
    constexpr unsigned kWidth = sizeof(V) / sizeof(u64);
    constexpr unsigned kGroups = RngLanes::kLanes / kWidth;
    V s[4][kGroups] = {};
    for (std::size_t word = 0; word < 4; ++word) {
        V bits[kGroups];
        std::memcpy(bits, kFillJumps.w[word], sizeof(bits));
        for (unsigned bit = 0; bit < 64; ++bit) {
#pragma GCC unroll 2
            for (unsigned g = 0; g < kGroups; ++g) {
                const V take = -(bits[g] & 1);
                bits[g] >>= 1;
                for (std::size_t k = 0; k < 4; ++k)
                    s[k][g] ^= take & base[k];
            }
            u64 unused;
            xoshiroStep(base[0], base[1], base[2], base[3], unused);
        }
    }
    for (std::size_t t = 0; t < kFillSegment; t += 8) {
        V pack[kGroups] = {};
        for (unsigned step = 0; step < 8; ++step) {
#pragma GCC unroll 2
            for (unsigned g = 0; g < kGroups; ++g) {
                V draw;
                xoshiroStep(s[0][g], s[1][g], s[2][g], s[3][g], draw);
                // The first step's byte lands at the lowest address.
                if constexpr (std::endian::native == std::endian::little)
                    pack[g] = (pack[g] >> 8) | (draw << 56);
                else
                    pack[g] = (pack[g] << 8) | (draw & 0xFF);
            }
        }
        u64 words[RngLanes::kLanes];
        std::memcpy(words, pack, sizeof(words));
#pragma GCC unroll 8
        for (unsigned l = 0; l < RngLanes::kLanes; ++l)
            if (l < segs)
                std::memcpy(out + l * kFillSegment + t, &words[l], 8);
    }
    for (std::size_t k = 0; k < 4; ++k) {
        u64 lanes[RngLanes::kLanes];
        std::memcpy(lanes, s[k], sizeof(lanes));
        base[k] = lanes[segs - 1];
    }
}

/** The lane fill over a whole buffer: lane rounds while at least
 *  kFillMinSegments segments are left, then the serial loop. */
template <typename V>
[[gnu::always_inline]] inline void
fillDrawBytesBody(Rng &rng, u8 *out, std::size_t n)
{
    constexpr std::size_t kRoundMin = kFillMinSegments * kFillSegment;
    std::size_t i = 0;
    if (n >= kRoundMin) {
        std::array<u64, 4> base = rng.saveState();
        while (n - i >= kRoundMin) {
            const std::size_t segs = std::min<std::size_t>(
                RngLanes::kLanes, (n - i) / kFillSegment);
            fillRoundBody<V>(base, out + i, static_cast<unsigned>(segs));
            i += segs * kFillSegment;
        }
        rng.restoreState(base);
    }
    fillDrawBytesSerial(rng, out + i, n - i);
}

void
fillDrawBytesVector(Rng &rng, u8 *out, std::size_t n)
{
    fillDrawBytesBody<U64x4>(rng, out, n);
}

/** Signed lanes for the chance compare: both sides are below 2^53. */
typedef i64 I64x4 __attribute__((vector_size(32)));

/**
 * The lane Bernoulli draw as vector code, one body for every
 * lowering: the eight lanes are kGroups groups of V, as in
 * zeroScanBody, stepped once per round. `Bits` is the ISA's compare,
 * built from the round's draws and the bound: bits() has bit l set
 * when lane l's draw >> 11 is below it, which is Rng::chance(Odds).
 */
template <typename V, typename Bits>
[[gnu::always_inline]] inline void
chanceLanesBody(RngLanes &lanes, Rng::Odds odds, u8 *out,
                std::size_t rounds)
{
    // bound - 1 wraps for bound 0, so one compare finds both no-draw
    // cases, as in Rng::chance(Odds).
    if (odds.bound - 1 >= kZeroMaxLimit - 1) {
        std::memset(out, odds.bound != 0 ? 0xFF : 0, rounds);
        return;
    }
    constexpr unsigned kWidth = sizeof(V) / sizeof(u64);
    constexpr unsigned kGroups = RngLanes::kLanes / kWidth;
    V s[4][kGroups];
    for (std::size_t k = 0; k < 4; ++k)
        std::memcpy(s[k], lanes.s[k], sizeof(s[k]));
    for (std::size_t r = 0; r < rounds; ++r) {
        V draw[kGroups];
#pragma GCC unroll 2
        for (unsigned g = 0; g < kGroups; ++g)
            xoshiroStep(s[0][g], s[1][g], s[2][g], s[3][g], draw[g]);
        out[r] = Bits(draw, odds.bound).bits();
    }
    for (std::size_t k = 0; k < 4; ++k)
        std::memcpy(lanes.s[k], s[k], sizeof(s[k]));
}

/**
 * The portable compare over two U64x4 groups: a signed lane compare,
 * each lane's mask kept at its own bit and the groups ORed, then two
 * shuffle-ORs gather the eight bits into lane 0.
 */
struct WeightBits
{
    U64x4 set;

    [[gnu::always_inline]] WeightBits(const U64x4 (&draw)[2], u64 bound)
    {
        const I64x4 b = I64x4{} + static_cast<i64>(bound);
        const U64x4 lo = reinterpret_cast<U64x4>(
            reinterpret_cast<I64x4>(draw[0] >> 11) < b);
        const U64x4 hi = reinterpret_cast<U64x4>(
            reinterpret_cast<I64x4>(draw[1] >> 11) < b);
        set = (lo & U64x4{1, 2, 4, 8}) | (hi & U64x4{16, 32, 64, 128});
    }

    [[gnu::always_inline]] u8
    bits() const
    {
        U64x4 a = set | __builtin_shufflevector(set, set, 2, 3, 0, 1);
        a |= __builtin_shufflevector(a, a, 1, 0, 3, 2);
        return static_cast<u8>(a[0]);
    }
};

void
chanceLanesVector(RngLanes &lanes, Rng::Odds odds, u8 *out,
                  std::size_t rounds)
{
    chanceLanesBody<U64x4, WeightBits>(lanes, odds, out, rounds);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

/** The lane fill's two-group body lowered with AVX2. */
__attribute__((target("avx2"))) void
fillDrawBytesVectorAvx2(Rng &rng, u8 *out, std::size_t n)
{
    fillDrawBytesBody<U64x4>(rng, out, n);
}

/** The lane fill's one-group body lowered with AVX-512F: the rotates
 *  are vprolq. */
__attribute__((target("avx512f"))) void
fillDrawBytesVectorAvx512(Rng &rng, u8 *out, std::size_t n)
{
    fillDrawBytesBody<U64x8>(rng, out, n);
}

/**
 * The AVX2 compare over two U64x4 groups: one vpcmpgtq per group
 * (bound > draw >> 11, signed, exact below 2^53) and vmovmskpd, whose
 * four bits are the group's lanes. Not always_inline, for MaskHit's
 * reason below: flatten on the entry inlines it.
 */
struct MoveMaskBits
{
    u8 set;

    [[gnu::target("avx2")]] MoveMaskBits(const U64x4 (&draw)[2],
                                         u64 bound)
    {
        const __m256i b = _mm256_set1_epi64x(static_cast<long long>(bound));
        const int lo = _mm256_movemask_pd(_mm256_castsi256_pd(
            _mm256_cmpgt_epi64(b, reinterpret_cast<__m256i>(draw[0] >> 11))));
        const int hi = _mm256_movemask_pd(_mm256_castsi256_pd(
            _mm256_cmpgt_epi64(b, reinterpret_cast<__m256i>(draw[1] >> 11))));
        set = static_cast<u8>(lo | (hi << 4));
    }

    u8 bits() const { return set; }
};

/** The lane Bernoulli draw's two-group body lowered with AVX2. */
__attribute__((target("avx2"), flatten)) void
chanceLanesVectorAvx2(RngLanes &lanes, Rng::Odds odds, u8 *out,
                      std::size_t rounds)
{
    chanceLanesBody<U64x4, MoveMaskBits>(lanes, odds, out, rounds);
}

/** The AVX-512 compare over one U64x8 group: one vpcmpuq into a mask
 *  register, whose eight bits are the lanes. */
struct CompareMaskBits
{
    __mmask8 set;

    [[gnu::target("avx512f")]] CompareMaskBits(const U64x8 (&draw)[1],
                                               u64 bound)
        : set(_mm512_cmplt_epu64_mask(
              reinterpret_cast<__m512i>(draw[0] >> 11),
              _mm512_set1_epi64(static_cast<long long>(bound))))
    {
    }

    u8 bits() const { return set; }
};

/** The lane Bernoulli draw's one-group body lowered with AVX-512F. */
__attribute__((target("avx512f"), flatten)) void
chanceLanesVectorAvx512(RngLanes &lanes, Rng::Odds odds, u8 *out,
                        std::size_t rounds)
{
    chanceLanesBody<U64x8, CompareMaskBits>(lanes, odds, out, rounds);
}

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

bool
cpuHasAvx2()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    static const bool avail = __builtin_cpu_supports("avx2") != 0;
    return avail;
#else
    return false;
#endif
}

bool
cpuHasAvx512()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    static const bool avail = __builtin_cpu_supports("avx512f") != 0;
    return avail;
#else
    return false;
#endif
}

const XorKernelOps &
xorKernelOps()
{
    static const std::vector<XorKernelOps> entries = [] {
        std::vector<XorKernelOps> e{
            {&xorFoldScalar, &xorFoldNScalar, "scalar-u64"},
            {&xorFoldVector, &xorFoldNVector, "vector32"}};
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
        if (cpuHasAvx2())
            e.push_back(
                {&xorFoldVectorAvx2, &xorFoldNVectorAvx2, "vector32-avx2"});
#endif
        return e;
    }();
    return activeEntry<XorKernelOps>(entries);
}

std::span<const ZeroScanOps>
zeroScanEntries()
{
    static const std::vector<ZeroScanOps> entries = [] {
        std::vector<ZeroScanOps> e{{&zeroScanScalar, "scalar-rng"},
                                   {&zeroScanVector, "vector2x4x64"}};
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
        if (cpuHasAvx2())
            e.push_back({&zeroScanVectorAvx2, "vector2x4x64-avx2"});
        if (cpuHasAvx512())
            e.push_back({&zeroScanVectorAvx512, "vector8x64-avx512"});
#endif
        return e;
    }();
    return entries;
}

const ZeroScanOps &
zeroScanOps()
{
    return activeEntry(zeroScanEntries());
}

std::span<const FillDrawBytesOps>
fillDrawBytesEntries()
{
    static const std::vector<FillDrawBytesOps> entries = [] {
        std::vector<FillDrawBytesOps> e{
            {&fillDrawBytesSerial, "scalar-rng"},
            {&fillDrawBytesVector, "vector2x4x64"}};
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
        if (cpuHasAvx2())
            e.push_back({&fillDrawBytesVectorAvx2, "vector2x4x64-avx2"});
        if (cpuHasAvx512())
            e.push_back({&fillDrawBytesVectorAvx512, "vector8x64-avx512"});
#endif
        return e;
    }();
    return entries;
}

const FillDrawBytesOps &
fillDrawBytesOps()
{
    return activeEntry(fillDrawBytesEntries());
}

std::span<const ChanceLanesOps>
chanceLanesEntries()
{
    static const std::vector<ChanceLanesOps> entries = [] {
        std::vector<ChanceLanesOps> e{{&chanceLanesRng, "scalar-rng"},
                                      {&chanceLanesVector, "vector2x4x64"}};
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
        if (cpuHasAvx2())
            e.push_back({&chanceLanesVectorAvx2, "vector2x4x64-avx2"});
        if (cpuHasAvx512())
            e.push_back({&chanceLanesVectorAvx512, "vector8x64-avx512"});
#endif
        return e;
    }();
    return entries;
}

const ChanceLanesOps &
chanceLanesOps()
{
    return activeEntry(chanceLanesEntries());
}

} // namespace citadel
