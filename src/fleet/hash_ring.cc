#include "fleet/hash_ring.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"

namespace citadel {
namespace fleet {

HashRing::HashRing(u32 servers, u32 vnodes, u64 seed)
    : inRing_(servers, true), live_(servers), seed_(seed)
{
    if (servers == 0 || vnodes == 0)
        fatal("HashRing: servers and vnodes must be >= 1");
    points_.reserve(static_cast<std::size_t>(servers) * vnodes);
    for (u32 s = 0; s < servers; ++s) {
        for (u32 v = 0; v < vnodes; ++v) {
            u64 h = mix64(seed ^ (static_cast<u64>(s) << 32) ^ v);
            points_.push_back({h, s});
        }
    }
    std::sort(points_.begin(), points_.end());
    // A hash collision would make the clockwise order depend on sort
    // stability details; salt duplicates until every point is unique.
    for (std::size_t i = 1; i < points_.size(); ++i) {
        u64 salt = 1;
        while (points_[i].hash == points_[i - 1].hash)
            points_[i].hash = mix64(points_[i].hash + salt++);
    }
    std::sort(points_.begin(), points_.end());
    // Freeze the post-salting points as each server's canonical set:
    // remove()/add() below move exactly these, so membership churn can
    // never re-salt and ownership round-trips exactly.
    canonical_.resize(servers);
    for (const Point &p : points_)
        canonical_[p.server].push_back(p.hash);
    for (auto &c : canonical_)
        std::sort(c.begin(), c.end());
}

void
HashRing::remove(ServerIdx s)
{
    if (s >= inRing_.size() || !inRing_[s])
        return;
    inRing_[s] = false;
    --live_;
    ++epoch_;
    points_.erase(std::remove_if(points_.begin(), points_.end(),
                                 [s](const Point &p) {
                                     return p.server == s;
                                 }),
                  points_.end());
}

void
HashRing::add(ServerIdx s)
{
    if (s >= inRing_.size() || inRing_[s])
        return;
    inRing_[s] = true;
    ++live_;
    ++epoch_;
    const std::size_t old = points_.size();
    for (u64 h : canonical_[s])
        points_.push_back({h, s});
    std::inplace_merge(points_.begin(),
                       points_.begin() + static_cast<std::ptrdiff_t>(old),
                       points_.end());
}

bool
HashRing::contains(ServerIdx s) const
{
    return s < inRing_.size() && inRing_[s];
}

void
HashRing::placement(u64 key, u32 replicas,
                    std::vector<ServerIdx> &out) const
{
    out.clear();
    if (points_.empty() || replicas == 0)
        return;
    const u64 h = mix64(key ^ seed_);
    auto it = std::lower_bound(points_.begin(), points_.end(),
                               Point{h, 0});
    for (std::size_t walked = 0;
         walked < points_.size() && out.size() < replicas; ++walked) {
        if (it == points_.end())
            it = points_.begin();
        const ServerIdx s = it->server;
        if (std::find(out.begin(), out.end(), s) == out.end())
            out.push_back(s);
        ++it;
    }
}

void
HashRing::placementPlus(ServerIdx candidate, u64 key, u32 replicas,
                        std::vector<ServerIdx> &out) const
{
    if (candidate >= inRing_.size() || inRing_[candidate]) {
        placement(key, replicas, out);
        return;
    }
    out.clear();
    const auto &cand = canonical_[candidate];
    const std::size_t np = points_.size();
    const std::size_t nc = cand.size();
    if ((np == 0 && nc == 0) || replicas == 0)
        return;
    const u64 h = mix64(key ^ seed_);
    // Merged circular walk over the live points and the candidate's
    // canonical points. Comparing by clockwise distance (hash - h in
    // wrapping u64 arithmetic) linearizes the circle, so each list is
    // consumed from its lower_bound with a wrapping index and the
    // merge is an ordinary two-pointer min-pick.
    const std::size_t i0 = static_cast<std::size_t>(
        std::lower_bound(points_.begin(), points_.end(), Point{h, 0}) -
        points_.begin());
    const std::size_t j0 = static_cast<std::size_t>(
        std::lower_bound(cand.begin(), cand.end(), h) - cand.begin());
    std::size_t a = 0, b = 0;
    while (a + b < np + nc && out.size() < replicas) {
        ServerIdx s;
        const u64 dp = a < np ? points_[(i0 + a) % np].hash - h
                              : ~u64{0};
        const u64 dc = b < nc ? cand[(j0 + b) % nc] - h : ~u64{0};
        // No tie possible: all point hashes are globally distinct and
        // the candidate is not live, so dp != dc while both remain.
        if (a < np && (b >= nc || dp < dc)) {
            s = points_[(i0 + a) % np].server;
            ++a;
        } else {
            s = candidate;
            ++b;
        }
        if (std::find(out.begin(), out.end(), s) == out.end())
            out.push_back(s);
    }
}

ServerIdx
HashRing::primary(u64 key) const
{
    std::vector<ServerIdx> one;
    placement(key, 1, one);
    return one.empty() ? kNoServer : one[0];
}

void
HashRing::fields(auto &io, auto &self)
{
    io.expect(static_cast<u64>(self.inRing_.size()),
              "HashRing::loadState: fleet size mismatch");
    io.fixed(self.inRing_);
    io(self.epoch_);
}

void
HashRing::saveState(ByteSink &sink) const
{
    Writer out(sink);
    fields(out, *this);
}

void
HashRing::loadState(ByteSource &src)
{
    Reader in(src);
    fields(in, *this);
    // Epochs start at 1, and the placement memo treats stamp 0 as
    // "never walked": a restored epoch 0 would make every empty memo
    // entry look current.
    if (epoch_ == 0)
        fatal("HashRing::loadState: corrupt checkpoint: ring epoch 0 "
              "(epochs start at 1)");
    // Rebuild live points from the canonical sets; membership plus
    // the construction-time salting fully determines them.
    live_ = 0;
    points_.clear();
    for (std::size_t s = 0; s < inRing_.size(); ++s) {
        if (!inRing_[s])
            continue;
        ++live_;
        for (u64 h : canonical_[s])
            points_.push_back({h, static_cast<ServerIdx>(s)});
    }
    std::sort(points_.begin(), points_.end());
}

} // namespace fleet
} // namespace citadel
