/**
 * @file
 * DRAM active-power model following the Micron memory-system power
 * technical notes (TN-41-01 methodology) adapted to an 8Gb stacked die
 * (Section III-B): activation energy per row cycle, read/write energy
 * per transferred byte, and refresh at the HBM 32ms interval. The
 * evaluation reports active power (activate + read + write + refresh),
 * as the paper does (Figs 5 and 16). The energy constants (8Gb die at
 * 1.2V, HBM-class) live in power.cc.
 */

#ifndef CITADEL_SIM_POWER_H
#define CITADEL_SIM_POWER_H

#include "sim/dram_timing.h"
#include "sim/memory_system.h"

namespace citadel {

/** Active-power breakdown for one simulation run. */
struct PowerResult
{
    double activateW = 0.0;
    double readWriteW = 0.0;
    double refreshW = 0.0;

    double totalW() const { return activateW + readWriteW + refreshW; }
};

/** Fold activity counters into average active power. */
PowerResult computePower(const MemCounters &mem, u64 cycles);

} // namespace citadel

#endif // CITADEL_SIM_POWER_H
