/**
 * @file
 * Client-side retry discipline: deadline-based timeouts, capped
 * exponential backoff with deterministic jitter, and hedged reads.
 *
 * Every delay is a pure function of (policy, operation id, attempt
 * ordinal) — the jitter is a counter hash, not an RNG draw — so two
 * campaigns with the same seed back off identically no matter how
 * operations interleave across worker threads. That is the property
 * tests/test_fleet_retry.cc pins down under a fake clock, and what
 * extends the repo's determinism contract to the fleet layer.
 */

#ifndef CITADEL_FLEET_RETRY_H
#define CITADEL_FLEET_RETRY_H

#include "fleet/fleet_types.h"

namespace citadel {
namespace fleet {

/** First backoff window, in ticks. */
constexpr u64 kBackoffBase = 4;

/** Backoff growth cap, in ticks. */
constexpr u64 kBackoffCap = 256;

/** Tunables of the retry/hedging state machine. */
struct RetryPolicy
{
    /** Ticks an attempt may stay unanswered before it is presumed
     *  lost and retried (per-attempt timeout). test-only: the pinned
     *  fixtures time out at 24. */
    u64 attemptTimeout = 48;

    /** Absolute budget per operation, in ticks from issue; when it
     *  expires the operation fails (deadline-based timeout).
     *  test-only: the pinned fixtures give up at 320. */
    u64 opDeadline = 1600;

    /** Attempts per operation before giving up early. test-only: the
     *  pinned fixtures allow 6. */
    u32 maxAttempts = 8;

    /** Ticks an un-answered *read* waits before a hedge is sent to
     *  the next replica (0 disables hedging). Writes never hedge --
     *  their replication fan-out already covers every replica.
     *  test-only: the pinned fixtures hedge at 8. */
    u64 hedgeAfter = 16;

    /** Jitter salt; campaigns fold their master seed in. */
    u64 seed = 0;

    /**
     * Backoff before re-sending attempt `attempt` (1-based: the delay
     * after the first failure is backoff(op, 1)). Exponential growth
     * from kBackoffBase capped at kBackoffCap, then jittered into
     * [w/2, w) by hashing (seed, op, attempt): deterministic, yet
     * decorrelated across operations so synchronized failures do not
     * retry in lockstep.
     */
    u64 backoff(u64 op, u32 attempt) const;

    void validate() const;
};

} // namespace fleet
} // namespace citadel

#endif // CITADEL_FLEET_RETRY_H
