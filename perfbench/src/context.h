/**
 * @file
 * Host measurements and the context every result is stamped with:
 * CPUs available, dispatch paths of the hot kernels, compiler and
 * build type.
 */

#ifndef PERFBENCH_CONTEXT_H
#define PERFBENCH_CONTEXT_H

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** CPUs this process may run on (what `nproc` prints). */
unsigned availableCpus();

/** User + system CPU seconds of the whole process so far. */
double processCpuSeconds();

/** Peak resident set size of the process so far, in MiB. */
double peakRssMb();

/** (key, value) stamps describing the host and the build. */
std::vector<std::pair<std::string, std::string>> buildContext();

} // namespace perfbench

#endif // PERFBENCH_CONTEXT_H
