#include "common/kernels.h"

#include <atomic>

#include "common/knobs.h"
#include "common/xor_fold.h"

namespace citadel {

namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

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
    // Vector and Auto both prefer the widest safe lowering: the AVX2
    // recompile where the CPU has it, otherwise the portable vector
    // extension (which degrades to plain word ops on SIMD-less
    // targets, so it is never worse than the scalar proof).
    // The cache is thread_local so MC workers re-resolve without racing.
    thread_local const XorKernelOps *resolved = nullptr;
    thread_local u64 resolvedEpoch = ~u64{0};
    const u64 epoch = kernelModeEpoch();
    if (resolved == nullptr || resolvedEpoch != epoch) {
        if (activeKernelMode() == KernelMode::Scalar)
            resolved = &kScalar;
        else
            resolved = haveAvx2() ? &kVectorAvx2 : &kVector;
        resolvedEpoch = epoch;
    }
    return *resolved;
}

} // namespace citadel
