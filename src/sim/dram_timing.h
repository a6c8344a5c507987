/**
 * @file
 * DRAM timing and simulator configuration (Table II): 800MHz memory
 * controller clock (DDR3-1600 data rate), tWTR-tCAS-tRCD-tRP-tRAS =
 * 7-9-9-9-36 in controller cycles.
 */

#ifndef CITADEL_SIM_DRAM_TIMING_H
#define CITADEL_SIM_DRAM_TIMING_H

#include "common/types.h"
#include "stack/address.h"

namespace citadel {

/** DRAM timing parameters in memory-controller cycles. */
struct DramTiming
{
    u32 tCAS = 9;  ///< Column access (read latency to first beat).
    u32 tRCD = 9;  ///< Row activate to column.
    u32 tRP = 9;   ///< Precharge.
    u32 tRAS = 36; ///< Activate to precharge (minimum row-open time).
    u32 tWTR = 7;  ///< Write-to-read turnaround.
    u32 tCCD = 4;  ///< Column-to-column within a bank.
    u32 tRRD = 4;  ///< Activate-to-activate across banks of a channel.
    u32 tBURST = 1; ///< 64B over 256 data TSVs at DDR = 2 beats = 1 cycle.

    u32 tRC() const { return tRAS + tRP; }
};

/** How much RAS-induced memory traffic the configuration generates. */
enum class RasTraffic
{
    None,           ///< Baseline / striped symbol code (inline ECC).
    ThreeDPCached,  ///< 3DP with D1 parity caching in the LLC.
    ThreeDPUncached ///< 3DP, parity read+write to DRAM per update.
};

/**
 * Clock-advance strategy for SystemSim::run(). Event stepping skips
 * cycles in which no component can change state and is bit-identical
 * to cycle stepping (DESIGN.md section 10); cycle stepping remains as
 * the differential oracle.
 */
enum class SimStepping
{
    Cycle, ///< Advance one cycle at a time.
    Event  ///< Jump to the next cycle anything can happen (default).
};

/** Full timing-simulation configuration. */
struct SimConfig
{
    StackGeometry geom;
    DramTiming timing;
    StripingMode striping = StripingMode::SameBank;
    RasTraffic ras = RasTraffic::None;
    SimStepping stepping = SimStepping::Event;

    u32 cores = 8;
    u64 insnsPerCore = 2'000'000;

    /** Retired instructions per memory cycle when unstalled: 3.2GHz
     *  core at IPC 2 against the 800MHz memory clock. */
    u32 insnsPerMemCycle = 8;

    /** Maximum outstanding read misses per core (MLP window). */
    u32 mlp = 8;

    /** Per-channel write queue capacity (backpressure threshold). */
    u32 writeQueueCap = 32;

    /** LLC geometry: 8MB, 8-way, 64B lines (Table II). */
    u64 llcBytes = 8ull << 20;
    u32 llcWays = 8;

    u64 seed = 7;
};

} // namespace citadel

#endif // CITADEL_SIM_DRAM_TIMING_H
