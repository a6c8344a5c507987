/**
 * @file
 * Runtime kernel dispatch (DESIGN.md section 14). The three byte-level
 * hot kernels (xorFold, xorFoldN, CRC-32 bulk update) each have a
 * scalar proof implementation and one or more wide implementations
 * (GCC/Clang vector extensions, PCLMULQDQ, ARMv8 CRC). Every variant
 * is value-pure over the same bytes — a pure function of its input
 * buffer — so which one runs can never change a seeded result; the
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

#include "common/types.h"

namespace citadel {

/** Which implementation family the dispatched kernels use. */
enum class KernelMode
{
    Scalar, ///< Force the scalar proof baselines (u64 xorFold, slice8 CRC).
    Vector, ///< Force the wide paths (vector xorFold; hw CRC if present).
    Auto,   ///< Best available: vector xorFold, hw CRC when the CPU has it.
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
    const char *path; ///< "scalar-u64" or "vector32", for bench reporting.
};

/** Active XOR kernels; revalidated against kernelModeEpoch() per call. */
const XorKernelOps &xorKernelOps();

} // namespace citadel

#endif // CITADEL_COMMON_KERNELS_H
