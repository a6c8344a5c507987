/**
 * @file
 * Shared last-level cache model (8MB, 8-way, LRU; Table II).
 *
 * The simulator is LLC-miss driven: the workload generator emits the
 * miss stream directly, and every miss installs a line (dirty with the
 * benchmark's write fraction). The LLC's job in this model is the part
 * the paper evaluates: Dimension-1 parity lines cached on demand
 * (Section VI-C, Fig 12/13) contend with data fills, which determines
 * the parity-update hit rate and hence 3DP's performance overhead.
 *
 * Layout: per-way state lives in three parallel arrays indexed by
 * set * ways + way. Tags are kept alone, so the tags of one 8-way set
 * fill one 64-byte host cache line and a lookup touches nothing else;
 * recency and the dirty/parity flags are read only on a hit or while
 * choosing a victim. A way fills once and is never invalidated,
 * so a set's empty ways are always a suffix and the first one ends
 * every scan.
 */

#ifndef CITADEL_SIM_LLC_H
#define CITADEL_SIM_LLC_H

#include <vector>

#include "stack/geometry.h"

namespace citadel {

/** LLC occupancy/traffic statistics. */
struct LlcStats
{
    u64 dataFills = 0;
    u64 dirtyDataEvictions = 0;
    u64 parityProbes = 0;
    u64 parityHits = 0;
    u64 parityFills = 0;
    u64 dirtyParityEvictions = 0;

    double parityHitRate() const
    {
        return parityProbes
                   ? static_cast<double>(parityHits) /
                         static_cast<double>(parityProbes)
                   : 0.0;
    }
};

/** Set-associative LRU cache over line addresses. */
class Llc
{
  public:
    /** Information about a line displaced by a fill. */
    struct Victim
    {
        bool valid = false;
        LineAddr addr{};
        bool dirty = false;
        bool parity = false;
    };

    Llc(u64 capacity_bytes, u32 ways, u32 line_bytes = 64);

    /**
     * Parity-update probe (Fig 12 action 3): on hit the parity line is
     * updated in place (marked dirty, moved to MRU).
     */
    bool probeParity(LineAddr addr);

    /** Install a line; returns the displaced victim (LRU). */
    Victim fill(LineAddr addr, bool dirty, bool parity);

    const LlcStats &stats() const { return stats_; }
    u32 sets() const { return sets_; }

  private:
    /** Tag of an empty way (no line address comes near 2^64 - 1). */
    static constexpr u64 kEmpty = ~0ull;
    static constexpr u8 kDirty = 1;
    static constexpr u8 kParity = 2;

    u32 ways_;
    u32 sets_;
    std::vector<u64> tags_;    ///< Line address per way, or kEmpty.
    std::vector<u64> lastUse_; ///< useClock_ at the last touch.
    std::vector<u8> flags_;    ///< kDirty | kParity.
    u64 useClock_ = 0;
    LlcStats stats_;

    /** Index of the first way of `addr`'s set. */
    u64 setBase(LineAddr addr) const;
};

} // namespace citadel

#endif // CITADEL_SIM_LLC_H
