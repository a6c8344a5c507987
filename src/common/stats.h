/**
 * @file
 * Small statistics toolkit: streaming moments, binomial proportion
 * confidence intervals for Monte Carlo failure probabilities and for
 * ratios of them, and the geometric mean used for normalized
 * execution-time summaries.
 */

#ifndef CITADEL_COMMON_STATS_H
#define CITADEL_COMMON_STATS_H

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.h"

namespace citadel {

/**
 * Streaming mean/variance accumulator (Welford's algorithm), so long
 * Monte Carlo runs never need to buffer samples.
 */
class StreamingStats
{
  public:
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 for fewer than two samples. */
    double variance() const;
    double stddev() const;
    double min() const { return min_; }
    double max() const { return max_; }
    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Result of a binomial proportion estimate: the Monte Carlo engine
 * reports failure probabilities with a 95% Wilson score interval so
 * benches can print error bars.
 */
struct Proportion
{
    u64 successes = 0;
    u64 trials = 0;
    double estimate = 0.0;
    double lo95 = 0.0;
    double hi95 = 0.0;
};

/** Wilson score interval at 95% confidence. */
Proportion wilson(u64 successes, u64 trials);

/** A ratio of two binomial proportions with its 95% interval. */
struct RatioInterval
{
    double ratio = 0.0;
    double lo95 = 0.0;
    double hi95 = 0.0;
};

/**
 * The ratio num.estimate / den.estimate with its log-scale (Katz) 95%
 * interval: ln of the ratio is about normal with variance 1/x1 - 1/n1
 * + 1/x2 - 1/n2 for x successes in n trials. How many times more often
 * one scheme fails than another, with the spread both failure counts
 * allow. Empty when either side has no success, where the log ratio
 * is undefined; a caller then states a one-sided bound from the
 * Wilson interval instead.
 */
std::optional<RatioInterval> ratioInterval(const Proportion &num,
                                           const Proportion &den);

/** Geometric mean of strictly positive values. */
double geomean(const std::vector<double> &xs);

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &xs);

} // namespace citadel

#endif // CITADEL_COMMON_STATS_H
