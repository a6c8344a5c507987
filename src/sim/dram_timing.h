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

/** DRAM timing parameters in memory-controller cycles (Table II). */
namespace timing {
constexpr u32 tCAS = 9;   ///< Column access (read latency to first beat).
constexpr u32 tRCD = 9;   ///< Row activate to column.
constexpr u32 tRP = 9;    ///< Precharge.
constexpr u32 tRAS = 36;  ///< Activate to precharge (min row-open time).
constexpr u32 tWTR = 7;   ///< Write-to-read turnaround.
constexpr u32 tCCD = 4;   ///< Column-to-column within a bank.
constexpr u32 tRRD = 4;   ///< Activate-to-activate across a channel's banks.
constexpr u32 tBURST = 1; ///< 64B over 256 data TSVs, DDR: 2 beats, 1 cycle.
} // namespace timing

/** Per-channel write queue capacity in lines (backpressure threshold). */
constexpr u32 kWriteQueueCap = 32;

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
    StripingMode striping = StripingMode::SameBank;
    RasTraffic ras = RasTraffic::None;
    SimStepping stepping = SimStepping::Event;

    u32 cores = 8;
    u64 insnsPerCore = 2'000'000;

    /** LLC capacity: 8MB, 64B lines (Table II; 8-way in system_sim.cc). */
    u64 llcBytes = 8ull << 20;

    u64 seed = 7;
};

} // namespace citadel

#endif // CITADEL_SIM_DRAM_TIMING_H
