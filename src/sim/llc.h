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
 * Layout: a set is a 64-byte block of eight tags (ways beyond the
 * associativity stay empty) plus an 8-byte record. A lookup compares
 * all eight tags at once, with no branch per way: fill() and
 * probeParity() with eight scalar compares (matchMask, in
 * sim/llc_match.h). The SystemSim warm-up compiles its fill loop
 * around fillWith() once per compare there and picks one by kernel
 * mode: one vpcmpeqq into a mask register on AVX-512, two vpcmpeqq
 * and two vmovmskpd on AVX2, or matchMask itself. The record holds the
 * set's recency word, where nibble k is the way at recency rank k
 * (rank 0 is the most recent), so the LRU victim is read off the word
 * and a touch is a shift, with no per-way timestamps to scan; the
 * number of filled ways; and the dirty and parity flags as bit masks
 * indexed by way. A way fills once and is never invalidated, so a
 * set's empty ways are always a suffix and the next fill takes way
 * `filled` until the set is full.
 *
 * The tag blocks are not over-aligned to host cache lines: a
 * 64-byte-aligned tag array measured no faster, and glibc's aligned
 * allocator fragmented the heap across the timing suite's successive
 * constructions (peak RSS ~21 MB against ~15.5 MB).
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

    /**
     * fill() with the tag compare `Match` inlined (sim/llc_match.h,
     * which defines it), for a loop of fills compiled once per compare.
     */
    template <auto Match>
    Victim fillWith(LineAddr addr, bool dirty, bool parity);

    const LlcStats &stats() const { return stats_; }
    u32 sets() const { return sets_; }

    /** The most ways a set's recency word can order. */
    static constexpr u32 kMaxWays = 8;

  private:
    /** Tag of an empty way (no line address comes near 2^64 - 1). */
    static constexpr u64 kEmpty = ~0ull;

    /** One set's tags. */
    struct Tags
    {
        u64 way[kMaxWays];
    };

    /** One set's recency order and flags. */
    struct SetState
    {
        u32 order = 0;  ///< Nibble k: the way at recency rank k.
        u8 filled = 0;  ///< Ways 0 .. filled-1 hold lines.
        u8 dirty = 0;   ///< Bit w: way w is dirty.
        u8 parity = 0;  ///< Bit w: way w holds a parity line.
    };

    u32 ways_;
    u32 sets_;
    bool pow2Sets_; ///< sets_ is a power of two: index by mask.
    std::vector<Tags> tags_;
    std::vector<SetState> state_;
    LlcStats stats_;
    /** Index of `addr`'s set. Defined inline, as touch() is, in
     *  sim/llc_match.h beside the bodies that use them. */
    inline u64 setOf(LineAddr addr) const;

    /**
     * `order` with resident way `w` moved to rank 0 and the ways above
     * it in recency shifted down one rank. The lowest nibble equal to
     * `w` is its rank: XOR leaves that nibble zero, and the zero-nibble
     * test's lowest set bit (its top bit) is exact, since no nibble
     * below it borrows. Nibbles past the filled ranks are ignored: `w`
     * always appears below them.
     */
    static inline u32 touch(u32 order, u32 w);
};

} // namespace citadel

#endif // CITADEL_SIM_LLC_H
