/**
 * @file
 * Order statistics for reporting timings: the median, and high
 * percentiles that are only reported when enough samples lie beyond
 * them to mean something.
 */

#ifndef PERFBENCH_PERCENTILE_H
#define PERFBENCH_PERCENTILE_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** A percentile is reported only with at least this many samples
 *  strictly beyond its rank. */
constexpr std::size_t kMinSamplesBeyond = 10;

/** Median of `samples` (mean of the middle pair for an even count);
 *  0 for no samples. */
inline double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/**
 * Nearest-rank `q`-quantile (0 < q < 1) of `samples`, or nullopt when
 * fewer than kMinSamplesBeyond samples rank above it: a p99 needs at
 * least 1000 samples, a p90 at least 100.
 */
inline std::optional<double>
percentile(std::vector<double> samples, double q)
{
    const std::size_t n = samples.size();
    if (n == 0 || !(q > 0.0 && q < 1.0))
        return std::nullopt;
    // Nearest rank, 1-based; the epsilon keeps q*n = 990.0000001 from
    // rounding up a whole rank.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    const std::size_t k = std::clamp<std::size_t>(rank, 1, n);
    if (n - k < kMinSamplesBeyond)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     samples.end());
    return samples[k - 1];
}

} // namespace perfbench

#endif // PERFBENCH_PERCENTILE_H
