/**
 * @file
 * Runtime kernel dispatch (DESIGN.md section 14). The three byte-level
 * hot kernels (xorFold, xorFoldN, CRC-32 bulk update), the Monte
 * Carlo sampler's zero-cell scan and the ParityEngine image's
 * draw-byte fill each have a scalar proof implementation and one or
 * more wide implementations (GCC/Clang vector extensions and their
 * AVX2 and AVX-512 lowerings, PCLMULQDQ, ARMv8 CRC). Every variant is
 * value-pure — a pure function of its input buffer or generator
 * states — so which one runs can never change a seeded result; the
 * dispatch layer here only picks the fastest available one.
 *
 * Selection happens once at startup from the CITADEL_KERNEL env knob
 * (scalar | vector | auto; invalid text is rejected to auto with a
 * warning) plus a CPU capability probe, into plain function pointers.
 * Tests force specific paths via setKernelMode(); consumers that cache
 * a resolved pointer revalidate against kernelModeEpoch(), so a forced
 * switch takes effect on the next call.
 */

#ifndef CITADEL_COMMON_KERNELS_H
#define CITADEL_COMMON_KERNELS_H

#include <cstddef>
#include <span>

#include "common/rng.h"
#include "common/types.h"

namespace citadel {

/** Which implementation family the dispatched kernels use. */
enum class KernelMode
{
    Scalar, ///< Force the scalar proof baselines (u64 xorFold, slice8 CRC).
    /// Force the portable vector-extension bodies (xorFold, xorFoldN,
    /// zero-cell scan, draw-byte fill) without their AVX2 or AVX-512
    /// lowerings; hw CRC if present.
    Vector,
    /// Best available: the widest lowering of each vector body (AVX2;
    /// AVX-512 for the zero-cell scan and the draw-byte fill) and hw
    /// CRC when the CPU has them.
    Auto,
};

/** Display name: the mode's CITADEL_KERNEL spelling ("scalar" /
 *  "vector" / "auto"), so the enum follows the knob's spelling order. */
const char *kernelModeName(KernelMode mode);

/** Mode requested by CITADEL_KERNEL (common/knobs.h; invalid or
 *  unset text resolves to Auto). */
KernelMode requestedKernelMode();

/** Currently active mode (startup: requestedKernelMode()). */
KernelMode activeKernelMode();

/**
 * Force a dispatch mode at runtime. Test hook for the kernel
 * equivalence suites; call from a single thread with no concurrent
 * kernel users (kernels themselves stay value-pure, so even a racy
 * switch could only change speed, never bytes).
 */
void setKernelMode(KernelMode mode);

/**
 * Bumped by every setKernelMode() call. Consumers caching a resolved
 * function pointer compare this before use and re-resolve on change.
 */
u64 kernelModeEpoch();

/** dst[i] ^= src[i] over [0, n); signature of every xorFold variant. */
using XorFoldFn = void (*)(u8 *dst, const u8 *src, std::size_t n);

/** Fold k source lines into dst in one pass; xorFoldN variants. */
using XorFoldNFn = void (*)(u8 *dst, const u8 *const *srcs, std::size_t k,
                            std::size_t n);

/** Resolved XOR kernel entry points for the active mode. */
struct XorKernelOps
{
    XorFoldFn fold;
    XorFoldNFn foldN;
    /// "scalar-u64", "vector32" or "vector32-avx2", for bench reporting.
    const char *path;
};

/** Active XOR kernels; revalidated against kernelModeEpoch() per call. */
const XorKernelOps &xorKernelOps();

/** The largest zeroMax of a cell that draws: unitThreshold(1.0). */
constexpr u64 kZeroMaxLimit = u64{1} << 53;

/** zeroMax of a cell that takes no draw and never hits: a Poisson
 *  count of mean 0, which Rng::poisson returns without drawing. */
constexpr u64 kZeroScanSkip = ~u64{0};

/** zeroMax of a cell that takes no draw and hits in every lane: a
 *  cell with no first-uniform zero test (Rng::poisson's normal path,
 *  lambda >= 30). */
constexpr u64 kZeroScanHitAll = ~u64{0} - 1;

/** Where a zero-cell scan stopped. */
struct ZeroScanHit
{
    u32 lanes = 0; ///< Bit i set: lane i hit.
    /** Each lane's raw draw at that cell; unset for a cell that takes
     *  no draw. */
    u64 draws[RngLanes::kLanes] = {};
};

/**
 * The zero-cell scan: walk cells [0, n) in order, each lane drawing
 * one Rng::next() per cell whose zeroMax is <= kZeroMaxLimit (and none
 * for the two sentinels). A lane hits a cell when its draw's 53 high
 * bits exceed zeroMax, i.e. unit(draw) > exp(-lambda) when zeroMax =
 * Rng::unitThreshold(exp(-lambda)): its Poisson count is not zero.
 * Returns the first cell at which any lane hits, with `hit` filled
 * and every lane advanced exactly through that cell's draw; returns n
 * when no lane hits, with every lane advanced through all n cells.
 *
 * This body is the scalar proof, one Rng::next per lane per cell; L =
 * 1 is the sampler's one-generator path, L = RngLanes::kLanes the
 * proof of the dispatched lane scan.
 */
template <unsigned L>
[[gnu::always_inline]] inline u32
zeroScanRng(Rng *rngs, const u64 *zeroMax, u32 n, ZeroScanHit &hit)
{
    for (u32 i = 0; i < n; ++i) {
        const u64 zm = zeroMax[i];
        if (zm > kZeroMaxLimit) [[unlikely]] {
            if (zm == kZeroScanSkip)
                continue;
            hit.lanes = (1u << L) - 1;
            return i;
        }
        u32 lanes = 0;
        u64 draws[L];
        for (unsigned l = 0; l < L; ++l) {
            draws[l] = rngs[l].next();
            lanes |= static_cast<u32>((draws[l] >> 11) > zm) << l;
        }
        if (lanes != 0) [[unlikely]] {
            hit.lanes = lanes;
            for (unsigned l = 0; l < L; ++l)
                hit.draws[l] = draws[l];
            return i;
        }
    }
    return n;
}

/** The dispatched zero-cell scan over all RngLanes::kLanes lanes;
 *  same contract and the same result as zeroScanRng<kLanes> over the
 *  lanes' Rngs. */
using ZeroScanFn = u32 (*)(RngLanes &lanes, const u64 *zeroMax, u32 n,
                           ZeroScanHit &hit);

/** Resolved zero-cell scan for the active mode. */
struct ZeroScanOps
{
    ZeroScanFn scan;
    /// "scalar-rng", "vector2x4x64", "vector2x4x64-avx2" or
    /// "vector8x64-avx512", for reporting.
    const char *path;
};

/**
 * Every zero-cell scan entry this build compiled and this CPU runs,
 * in the order above: the scalar proof (Scalar mode), the portable
 * body as two 4-lane groups (Vector), then its AVX2 lowering and the
 * one-group AVX-512 entry where present. Auto resolves to the last;
 * the equivalence tests run them all.
 */
std::span<const ZeroScanOps> zeroScanEntries();

/** Active zero-cell scan; revalidated against kernelModeEpoch() per
 *  call. */
const ZeroScanOps &zeroScanOps();

/** Draws in one lane's segment of the lane fill (see
 *  fillDrawBytesSerial). */
constexpr std::size_t kFillSegment = 4096;

/** Fewest segments a lane round draws: a fill with fewer than this
 *  many segments left finishes in the serial loop. */
constexpr std::size_t kFillMinSegments = 4;

/**
 * The draw-byte fill: out[i] = u8(rng.next()) for i in [0, n), leaving
 * `rng` where that loop leaves it. This body is the scalar proof.
 *
 * The dispatched entries compute the same bytes in rounds of up to
 * RngLanes::kLanes segments of kFillSegment draws. A round fans the
 * generator out into lanes, lane l jumped l * kFillSegment draws ahead
 * (Rng::jump, by compile-time polynomials), steps all lanes together
 * and writes lane l's low bytes to segment l, eight per 64-bit store.
 * The last lane's end state is where the next round starts, and a
 * tail of fewer than kFillMinSegments segments goes through this loop.
 */
inline void
fillDrawBytesSerial(Rng &rng, u8 *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<u8>(rng.next());
}

/** Signature of every draw-byte fill entry. */
using FillDrawBytesFn = void (*)(Rng &rng, u8 *out, std::size_t n);

/** Resolved draw-byte fill for the active mode. */
struct FillDrawBytesOps
{
    FillDrawBytesFn fill;
    /// "scalar-rng", "vector2x4x64", "vector2x4x64-avx2" or
    /// "vector8x64-avx512", for reporting.
    const char *path;
};

/** Every draw-byte fill entry this build compiled and this CPU runs,
 *  in zeroScanEntries()' order and with its mode mapping. */
std::span<const FillDrawBytesOps> fillDrawBytesEntries();

/** Active draw-byte fill; revalidated against kernelModeEpoch() per
 *  call. */
const FillDrawBytesOps &fillDrawBytesOps();

/** The draw-byte fill through the active entry. */
inline void
fillDrawBytes(Rng &rng, u8 *out, std::size_t n)
{
    fillDrawBytesOps().fill(rng, out, n);
}

} // namespace citadel

#endif // CITADEL_COMMON_KERNELS_H
