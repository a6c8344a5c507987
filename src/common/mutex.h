/**
 * @file
 * Annotated synchronization primitives (DESIGN.md section 13).
 *
 * libstdc++'s std::mutex carries no thread-safety attributes, so Clang
 * Thread Safety Analysis cannot see through std::lock_guard /
 * std::unique_lock. These thin wrappers restore visibility:
 *
 *  - Mutex / MutexLock / CondVar: a std::mutex, its RAII guard, and a
 *    condition variable whose wait() *requires* the mutex — all
 *    annotated, all zero-overhead (CondVar adopts the native handle
 *    rather than switching to condition_variable_any).
 *  - ThreadRole / ThreadRoleGrant / assertRoleHeld: zero-state
 *    capability tokens for *phase disciplines* — invariants of the
 *    form "this method runs only in the campaign's serial phase".
 *    There is nothing to lock at runtime; the capability exists purely
 *    so the analysis can prove that parallel-phase code (a ThreadPool
 *    worker lambda, which starts with an empty capability set) cannot
 *    call a serial-phase-only method.
 *
 * Everything here must stay header-only and trivially cheap: the
 * ThreadPool hot path takes Mutex on every job handoff.
 */

#ifndef CITADEL_COMMON_MUTEX_H
#define CITADEL_COMMON_MUTEX_H

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace citadel {

/** std::mutex with TSA capability attributes. */
class CITADEL_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    // The lock primitives themselves are the one place the analysis is
    // turned off: they *implement* the capability transition the
    // attributes describe.
    void lock() CITADEL_ACQUIRE() CITADEL_NO_THREAD_SAFETY_ANALYSIS
    {
        m_.lock();
    }
    void unlock() CITADEL_RELEASE() CITADEL_NO_THREAD_SAFETY_ANALYSIS
    {
        m_.unlock();
    }

    /** Native handle for CondVar's adopt-and-release wait. */
    std::mutex &native() { return m_; }

  private:
    std::mutex m_;
};

/** RAII lock guard for Mutex (std::lock_guard with attributes). */
class CITADEL_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) CITADEL_ACQUIRE(mu) : mu_(mu)
    {
        mu.lock();
    }
    ~MutexLock() CITADEL_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * Condition variable bound to Mutex. wait() requires the mutex held
 * (enforced at compile time, where std::condition_variable relies on
 * convention) and holds it again when it returns. Callers keep the
 * usual predicate loop:
 *
 *     MutexLock lock(mutex_);
 *     while (!predicate)
 *         cv_.wait(mutex_);
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    void wait(Mutex &mu) CITADEL_REQUIRES(mu)
    {
        // Adopt the already-held native mutex for the duration of the
        // wait; release() afterwards so the unique_lock destructor
        // does not drop a lock the MutexLock scope still owns.
        std::unique_lock<std::mutex> native(mu.native(),
                                            std::adopt_lock);
        cv_.wait(native);
        native.release();
    }

    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

/**
 * A zero-state phase-role capability (clang TSA "thread role" idiom).
 * Declare one per phase discipline, e.g.
 *
 *     inline ThreadRole kSerialPhase;
 *
 * and annotate phase-confined methods CITADEL_REQUIRES(kSerialPhase).
 * The single-threaded owner of the phase takes the role with a scoped
 * ThreadRoleGrant; worker lambdas are analyzed with an empty
 * capability set, so any call from parallel code into a serial-phase
 * method is a compile error under -Wthread-safety.
 */
class CITADEL_CAPABILITY("role") ThreadRole
{
  public:
    ThreadRole() = default;
    ThreadRole(const ThreadRole &) = delete;
    ThreadRole &operator=(const ThreadRole &) = delete;
};

/** Scoped grant of a ThreadRole. Purely an annotation: there is no
 *  runtime state, because a role is a structural property of the
 *  campaign loop, not a lock that could be contended. */
class CITADEL_SCOPED_CAPABILITY ThreadRoleGrant
{
  public:
    explicit ThreadRoleGrant(ThreadRole &role)
        CITADEL_ACQUIRE(role) CITADEL_NO_THREAD_SAFETY_ANALYSIS
    {
        (void)role;
    }
    ~ThreadRoleGrant() CITADEL_RELEASE() CITADEL_NO_THREAD_SAFETY_ANALYSIS
    {
    }

    ThreadRoleGrant(const ThreadRoleGrant &) = delete;
    ThreadRoleGrant &operator=(const ThreadRoleGrant &) = delete;
};

/**
 * Assert (to the analysis) that `role` is held. This is the bridge
 * across type-erased callback boundaries: a std::function invoked only
 * from role-holding code states that contract at the top of its body,
 * because the analysis cannot propagate capabilities through erased
 * call sites.
 */
inline void
assertRoleHeld(ThreadRole &role) CITADEL_ASSERT_CAPABILITY(role)
{
    (void)role;
}

} // namespace citadel

#endif // CITADEL_COMMON_MUTEX_H
