#include "sim/power.h"

namespace citadel {

namespace {

/** Joules per row activation+precharge cycle of a 2KB page
 *  ((IDD0 - IDD3N) * tRC * VDD, TN-41-01 eq. style). */
constexpr double kActivateEnergyJ = 6.0e-9;

/** Joules per byte moved on a read (array + TSV I/O). */
constexpr double kReadEnergyPerByteJ = 1.5e-11;

/** Joules per byte moved on a write. */
constexpr double kWriteEnergyPerByteJ = 1.5e-11;

/** Refresh power for the whole memory system at tREF = 32ms. */
constexpr double kRefreshPowerW = 0.15;

/** Memory-controller cycle time (800MHz). */
constexpr double kCycleSeconds = 1.25e-9;

} // namespace

PowerResult
computePower(const MemCounters &mem, u64 cycles)
{
    PowerResult r;
    if (cycles == 0)
        return r;
    const double t = static_cast<double>(cycles) * kCycleSeconds;
    r.activateW = static_cast<double>(mem.activates) * kActivateEnergyJ / t;
    r.readWriteW =
        (static_cast<double>(mem.bytesRead) * kReadEnergyPerByteJ +
         static_cast<double>(mem.bytesWritten) * kWriteEnergyPerByteJ) /
        t;
    r.refreshW = kRefreshPowerW;
    return r;
}

} // namespace citadel
