/**
 * @file
 * Bounded poison-line set.
 *
 * The live datapath previously tracked DUE-reported lines in an
 * unbounded std::set<LineAddr>: one 48-byte node per poisoned line,
 * which a channel-granularity fault storm could grow to millions of
 * entries. This structure stores poisoned lines as sorted,
 * non-adjacent half-open runs [lo, hi) and caps the number of runs.
 *
 * Memory bound: at most `maxRuns` map nodes of two u64 each, about
 * 64 bytes per node with tree overhead -- ~256 KB at the default
 * 4096-run cap, regardless of how many lines are poisoned.
 *
 * On overflow the two runs with the smallest gap between them are
 * merged, swallowing the gap. That makes the set an
 * *over-approximation*: contains() may report a never-poisoned line
 * as poisoned. The only consumer effect is DUE *deduplication* -- a
 * line in a swallowed gap would not get a fresh distinct-DUE report
 * (counter `due` / its log event). Correctness reporting is
 * unaffected: the Uncorrectable outcome and the dueReads counter are
 * driven by the bit-true peel, not by this set. Tests that count
 * distinct DUEs stay far below the cap.
 */

#ifndef CITADEL_RAS_POISON_SET_H
#define CITADEL_RAS_POISON_SET_H

#include <map>

#include "common/log.h"
#include "common/serialize.h"
#include "common/strong_id.h"

namespace citadel {

/** Run-compressed set of poisoned line addresses. */
class BoundedPoisonSet
{
  public:
    explicit BoundedPoisonSet(std::size_t max_runs = 4096)
        : maxRuns_(max_runs)
    {
        if (max_runs == 0)
            fatal("BoundedPoisonSet: max_runs must be > 0");
    }

    /** @return true if the line was not already contained (i.e. this
     *  is a fresh poison worth reporting). */
    bool insert(LineAddr line)
    {
        const u64 a = line.value();
        if (contains(line))
            return false;
        // Coalesce with an adjacent right neighbor...
        auto right = runs_.find(a + 1);
        // ...and/or an adjacent left neighbor ending exactly at `a`.
        auto left = runs_.lower_bound(a);
        const bool joinLeft =
            left != runs_.begin() && (--left, left->second == a);

        if (joinLeft && right != runs_.end()) {
            left->second = right->second;
            runs_.erase(right);
        } else if (joinLeft) {
            left->second = a + 1;
        } else if (right != runs_.end()) {
            const u64 hi = right->second;
            runs_.erase(right);
            runs_[a] = hi;
        } else {
            runs_[a] = a + 1;
        }
        enforceCap();
        return true;
    }

    bool contains(LineAddr line) const
    {
        const u64 a = line.value();
        auto it = runs_.upper_bound(a);
        if (it == runs_.begin())
            return false;
        --it;
        return a < it->second;
    }

    std::size_t runCount() const { return runs_.size(); }
    std::size_t maxRuns() const { return maxRuns_; }

    /** Has an overflow merge ever made contains() over-approximate? */
    bool overApproximated() const { return overApprox_; }

    void clear()
    {
        runs_.clear();
        overApprox_ = false;
    }

    void saveState(ByteSink &sink) const
    {
        Writer out(sink);
        fields(out, *this);
    }

    void loadState(ByteSource &src)
    {
        Reader in(src);
        fields(in, *this);
    }

  private:
    /** The checkpoint field list (common/serialize.h). */
    static void fields(auto &io, auto &self)
    {
        io(self.overApprox_, self.runs_);
    }

    void enforceCap()
    {
        while (runs_.size() > maxRuns_) {
            // Merge the pair of neighbors with the smallest gap; ties
            // resolve to the lowest address, keeping merges (and thus
            // the over-approximated region) deterministic.
            auto best = runs_.begin();
            u64 bestGap = ~u64{0};
            for (auto it = runs_.begin(); std::next(it) != runs_.end();
                 ++it) {
                const u64 gap = std::next(it)->first - it->second;
                if (gap < bestGap) {
                    bestGap = gap;
                    best = it;
                }
            }
            auto victim = std::next(best);
            best->second = victim->second;
            runs_.erase(victim);
            overApprox_ = true;
        }
    }

    std::map<u64, u64> runs_; ///< lo -> hi, disjoint, non-adjacent.
    std::size_t maxRuns_;
    bool overApprox_ = false;
};

} // namespace citadel

#endif // CITADEL_RAS_POISON_SET_H
