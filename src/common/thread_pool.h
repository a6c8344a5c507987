/**
 * @file
 * Reusable std::thread worker pool for the embarrassingly parallel
 * loops in this codebase (Monte Carlo trial fan-out first of all).
 *
 * Design constraints, in order:
 *
 *  1. Determinism lives with the caller. The pool only distributes
 *     index ranges; any work whose result must be bit-identical across
 *     thread counts has to derive its randomness from the index (the
 *     Monte Carlo engine's counter-derived per-trial seeds) and merge
 *     shards with an associative, order-independent reduce.
 *  2. No global state. A pool is an ordinary object; the Monte Carlo
 *     engine constructs one per run (thread startup is microseconds
 *     against the seconds a 100K-trial sweep takes).
 *  3. Workers never throw across the pool boundary: jobs are expected
 *     to report failure through their own shard state. An escaping
 *     exception terminates, which is the right behavior for panic()-
 *     style invariant violations.
 */

#ifndef CITADEL_COMMON_THREAD_POOL_H
#define CITADEL_COMMON_THREAD_POOL_H

#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"

namespace citadel {

/**
 * Worker threads resolved from the environment: CITADEL_THREADS if set
 * and nonzero (1 selects the legacy single-threaded path everywhere),
 * otherwise std::thread::hardware_concurrency() (minimum 1).
 */
unsigned citadelThreads();

/** Fixed-size pool of worker threads with a blocking fork/join API. */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 resolves via citadelThreads(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads in the pool. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Run `fn(worker_index)` once on every worker concurrently and
     * block until all have returned. The per-worker index is stable
     * ([0, size())), so callers can give each worker its own shard.
     * May be called repeatedly; calls do not overlap.
     */
    void runOnWorkers(const std::function<void(unsigned)> &fn);

    /**
     * Dynamically chunked parallel loop over [0, items): workers grab
     * chunks of at least `min_chunk` indices from a shared counter and
     * call `fn(begin, end, worker_index)` per chunk. Blocks until the
     * whole range is processed. Chunk-to-worker assignment is
     * nondeterministic; results must be merged order-independently.
     */
    void parallelFor(u64 items, u64 min_chunk,
                     const std::function<void(u64, u64, unsigned)> &fn);

  private:
    void workerLoop(unsigned index);

    std::vector<std::thread> workers_;

    /** Guards the job-handoff state below (DESIGN.md section 13: the
     *  only lock in the codebase; everything else shares by phase
     *  discipline or disjoint per-worker slots). */
    Mutex mutex_;
    CondVar wake_;
    CondVar done_;
    const std::function<void(unsigned)> *job_
        CITADEL_GUARDED_BY(mutex_) = nullptr;
    /** Bumped per runOnWorkers call. */
    u64 generation_ CITADEL_GUARDED_BY(mutex_) = 0;
    /** Workers still running the current job. */
    unsigned pending_ CITADEL_GUARDED_BY(mutex_) = 0;
    bool stop_ CITADEL_GUARDED_BY(mutex_) = false;
};

} // namespace citadel

#endif // CITADEL_COMMON_THREAD_POOL_H
