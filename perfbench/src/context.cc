#include "context.h"

#include <sched.h>
#include <sys/resource.h>

#include <thread>

#include "common/kernels.h"
#include "ecc/crc32.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<std::pair<std::string, std::string>>
buildContext()
{
    return {
        {"nproc", std::to_string(availableCpus())},
        {"hardware_concurrency",
         std::to_string(std::thread::hardware_concurrency())},
        {"xor_kernel_path", citadel::xorKernelOps().path},
        {"crc32_path", citadel::Crc32::activePathName()},
#if defined(__clang__)
        {"compiler", std::string("clang ") + __clang_version__},
#elif defined(__GNUC__)
        {"compiler", std::string("gcc ") + __VERSION__},
#else
        {"compiler", "unknown"},
#endif
        {"build_type", PERFBENCH_BUILD_TYPE},
    };
}

} // namespace perfbench
