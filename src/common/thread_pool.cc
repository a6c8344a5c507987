#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/knobs.h"

namespace citadel {

unsigned
citadelThreads()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const u64 n = knobU64(Knob::Threads);
    return n == 0 ? hw : static_cast<unsigned>(n);
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = threads == 0 ? citadelThreads() : threads;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    wake_.notifyAll();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop(unsigned index)
{
    u64 seen = 0;
    for (;;) {
        const std::function<void(unsigned)> *job = nullptr;
        {
            MutexLock lock(mutex_);
            while (!stop_ && generation_ == seen)
                wake_.wait(mutex_);
            if (stop_)
                return;
            seen = generation_;
            job = job_;
        }
        // The job runs with no lock held: jobs are free to take their
        // own locks or block without serializing the pool.
        (*job)(index);
        bool last = false;
        {
            MutexLock lock(mutex_);
            last = --pending_ == 0;
        }
        // Notify after dropping the lock so the joining thread wakes
        // straight into a free mutex instead of blocking on ours.
        if (last)
            done_.notifyAll();
    }
}

void
ThreadPool::runOnWorkers(const std::function<void(unsigned)> &fn)
{
    MutexLock lock(mutex_);
    job_ = &fn;
    pending_ = size();
    ++generation_;
    wake_.notifyAll();
    while (pending_ != 0)
        done_.wait(mutex_);
    job_ = nullptr;
}

void
ThreadPool::parallelFor(u64 items, u64 min_chunk,
                        const std::function<void(u64, u64, unsigned)> &fn)
{
    if (items == 0)
        return;
    // Aim for several chunks per worker so uneven work self-balances,
    // but never below the caller's floor (tiny chunks would serialize
    // on the shared counter).
    const u64 target = items / (static_cast<u64>(size()) * 8 + 1) + 1;
    const u64 chunk = std::max<u64>(1, std::max(min_chunk, target));
    std::atomic<u64> next{0};
    runOnWorkers([&](unsigned worker) {
        for (;;) {
            const u64 begin =
                next.fetch_add(chunk, std::memory_order_relaxed);
            if (begin >= items)
                break;
            fn(begin, std::min(begin + chunk, items), worker);
        }
    });
}

} // namespace citadel
