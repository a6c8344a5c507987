/**
 * @file
 * Consistent-hash placement ring with virtual nodes and replication.
 *
 * Each server contributes `vnodes` points (hashes of (seed, server,
 * vnode)) on a 64-bit ring; a key is owned by the first `replicas`
 * distinct live servers clockwise of its hash. Removing a server
 * deletes only its points, so keys move minimally — exactly onto the
 * servers that were already next in their replica chains, which is
 * what lets the coordinator fail a stack over without a global
 * reshuffle.
 *
 * The ring is deterministic: point positions depend only on (seed,
 * server, vnode), lookups walk a sorted vector, and ties cannot occur
 * (colliding point hashes are salted until distinct at construction).
 *
 * Elasticity (DESIGN.md §16): every server's salted points are fixed
 * at construction (the *canonical* set), and add() re-inserts exactly
 * the points remove() deleted — so remove-then-add of the same server
 * restores bit-identical ownership. Membership changes bump a ring
 * epoch that placement caches and warm scans key on; placementPlus()
 * answers "who would own this key if server X were in the ring"
 * without mutating anything, which is what the coordinator's warm
 * pump uses to stream a joining server exactly its prospective shard.
 */

#ifndef CITADEL_FLEET_HASH_RING_H
#define CITADEL_FLEET_HASH_RING_H

#include <vector>

#include "fleet/fleet_types.h"

namespace citadel {
namespace fleet {

class HashRing
{
  public:
    /**
     * @param servers Fleet size; all start live.
     * @param vnodes Points per server (balance improves with more).
     * @param seed Ring salt; different seeds give different layouts.
     */
    HashRing(u32 servers, u32 vnodes, u64 seed);

    /** Remove a server's points (failover). Bumps the epoch.
     *  Idempotent: removing an absent server does nothing. */
    void remove(ServerIdx s);

    /**
     * Re-insert a server's canonical points (join admission — the
     * inverse of remove()). Bumps the epoch. Idempotent: adding a
     * present server does nothing. remove(s) followed by add(s)
     * restores identical ownership for every key at epoch + 2.
     */
    void add(ServerIdx s);

    bool contains(ServerIdx s) const;
    u32 liveCount() const { return live_; }

    /** Membership generation: starts at 1, +1 per remove() or add().
     *  Placement caches and warm scans are invalidated by epoch. */
    u64 epoch() const { return epoch_; }

    /**
     * The first `replicas` distinct live servers clockwise of the
     * key's hash, primary first. Appends fewer when fewer are live.
     */
    void placement(u64 key, u32 replicas,
                   std::vector<ServerIdx> &out) const;

    /**
     * Placement as it *would* be if `candidate` were in the ring,
     * without mutating membership. If the candidate already is in the
     * ring this is placement(). The warm pump uses it to compute a
     * joining server's prospective shard while client traffic still
     * routes around it.
     */
    void placementPlus(ServerIdx candidate, u64 key, u32 replicas,
                       std::vector<ServerIdx> &out) const;

    /** Convenience: the key's primary, or kNoServer. */
    ServerIdx primary(u64 key) const;

    /** Checkpoint membership + epoch (points are canonical, so the
     *  live set is the whole mutable state). loadState() rebuilds the
     *  live points and rejects epoch 0, which no ring ever has. */
    void saveState(ByteSink &sink) const;
    void loadState(ByteSource &src);

  private:
    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self);

    struct Point
    {
        u64 hash;
        ServerIdx server;
        bool operator<(const Point &o) const { return hash < o.hash; }
    };

    std::vector<Point> points_; ///< Live points, sorted by hash.
    /// Per-server canonical point hashes (sorted), fixed at
    /// construction after global collision salting.
    std::vector<std::vector<u64>> canonical_;
    std::vector<bool> inRing_; ///< Indexed by server.
    u32 live_ = 0;
    u64 epoch_ = 1;
    u64 seed_;
};

} // namespace fleet
} // namespace citadel

#endif // CITADEL_FLEET_HASH_RING_H
