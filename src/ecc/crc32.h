/**
 * @file
 * CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320). Citadel tags
 * every 512-bit line with CRC-32 computed over address and data
 * (Section V-C.2) to detect errors before 3DP correction. The library
 * provides a slice-by-8 production implementation (8 message bytes per
 * iteration; the live RAS datapath CRCs every demand read, so this is
 * a genuinely hot kernel), the classic one-table byte-at-a-time
 * variant kept as the measured perf baseline, and a bitwise reference
 * used in tests.
 *
 * Where the CPU has carry-less multiply (x86-64 PCLMULQDQ) or CRC32
 * instructions (ARMv8 +crc, IEEE polynomial), bulk updates take a
 * hardware-folding path selected once at startup into a function
 * pointer (common/kernels.h, DESIGN.md section 14). All paths are
 * value-pure over the same bytes and pinned against the bitwise
 * reference, so which one runs never changes a result.
 */

#ifndef CITADEL_ECC_CRC32_H
#define CITADEL_ECC_CRC32_H

#include <cstddef>
#include <span>

#include "common/types.h"

namespace citadel {

/** Table-driven CRC-32. */
class Crc32
{
  public:
    /** CRC of a byte buffer (init 0xFFFFFFFF, final xor 0xFFFFFFFF). */
    static u32 compute(std::span<const u8> data);

    /** Incremental interface; bulk spans dispatch to the fastest
     *  available implementation (slice8 / PCLMUL / ARMv8 CRC). */
    static u32 begin() { return 0xFFFFFFFFu; }
    static u32 update(u32 state, std::span<const u8> data);
    static u32 update(u32 state, u64 value);
    static u32 finish(u32 state) { return state ^ 0xFFFFFFFFu; }

    /** Portable slicing-by-8 update: the proof baseline `update`
     *  dispatches to under CITADEL_KERNEL=scalar (or when the CPU has
     *  no CRC hardware), callable directly for benchmarking. */
    static u32 updateSlice8(u32 state, std::span<const u8> data);

    /** Hardware-folding update; falls back to slice8 byte-for-byte
     *  when hwAvailable() is false, so it is always safe to call. */
    static u32 updateHw(u32 state, std::span<const u8> data);

    /** True when this CPU offers a hardware CRC path. */
    static bool hwAvailable();

    /** Name of the path bulk `update` currently dispatches to:
     *  "slice8", "pclmul", or "armv8-crc" (bench reporting). */
    static const char *activePathName();

    /**
     * One-table byte-at-a-time update: the pre-slicing implementation,
     * kept as a test oracle — a mid-speed cross-check between `update`
     * and `referenceCompute` (test_crc32.cc).
     */
    static u32 updateBytewise(u32 state, std::span<const u8> data);

    /**
     * CRC over a line's address and payload, as Citadel stores in the
     * per-line metadata: mixing the address detects address-TSV faults
     * that silently return the wrong row (Section V-C.2).
     */
    static u32 lineCrc(u64 address, std::span<const u8> payload);

    /** Slow bitwise reference implementation (tests only). */
    static u32 referenceCompute(std::span<const u8> data);
};

} // namespace citadel

#endif // CITADEL_ECC_CRC32_H
