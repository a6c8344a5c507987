#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace citadel {

void
StreamingStats::add(double x)
{
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
StreamingStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
StreamingStats::stddev() const
{
    return std::sqrt(variance());
}

Proportion
wilson(u64 successes, u64 trials)
{
    Proportion p;
    p.successes = successes;
    p.trials = trials;
    if (trials == 0)
        return p;

    const double z = 1.959963984540054; // 97.5th percentile of N(0,1)
    const double n = static_cast<double>(trials);
    const double phat = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (phat + z2 / (2.0 * n)) / denom;
    const double half =
        (z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n))) / denom;

    p.estimate = phat;
    p.lo95 = std::max(0.0, center - half);
    p.hi95 = std::min(1.0, center + half);
    return p;
}

std::optional<RatioInterval>
ratioInterval(const Proportion &num, const Proportion &den)
{
    if (num.successes == 0 || den.successes == 0)
        return std::nullopt;
    const double z = 1.959963984540054;
    auto inv = [](u64 x) { return 1.0 / static_cast<double>(x); };
    const double var = inv(num.successes) - inv(num.trials) +
                       inv(den.successes) - inv(den.trials);
    const double half = z * std::sqrt(std::max(0.0, var));
    RatioInterval r;
    r.ratio = num.estimate / den.estimate;
    r.lo95 = r.ratio * std::exp(-half);
    r.hi95 = r.ratio * std::exp(half);
    return r;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        assert(x > 0.0);
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

} // namespace citadel
