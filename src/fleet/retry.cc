#include "fleet/retry.h"

#include <algorithm>
#include <bit>

#include "common/log.h"
#include "common/rng.h"

namespace citadel {
namespace fleet {

u64
RetryPolicy::backoff(u64 op, u32 attempt) const
{
    // Window: base << (attempt-1), saturating at the cap. The shift
    // stops at the cap's own, so no attempt ordinal can overflow it.
    constexpr u32 kMaxShift =
        static_cast<u32>(std::bit_width(kBackoffCap / kBackoffBase)) - 1;
    static_assert(kBackoffBase >= 2 &&
                  (kBackoffBase << kMaxShift) == kBackoffCap);
    const u64 window =
        kBackoffBase << std::min(attempt > 0 ? attempt - 1 : 0u, kMaxShift);
    const u64 jitter =
        mix64(seed ^ (op * 0x9E3779B97F4A7C15ull) ^ attempt) %
        (window / 2);
    return window / 2 + jitter;
}

void
RetryPolicy::validate() const
{
    if (maxAttempts == 0)
        fatal("RetryPolicy: maxAttempts must be >= 1");
    if (attemptTimeout == 0)
        fatal("RetryPolicy: attemptTimeout must be >= 1");
    if (opDeadline == 0)
        fatal("RetryPolicy: opDeadline must be >= 1");
}

} // namespace fleet
} // namespace citadel
