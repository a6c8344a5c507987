#include "common/rng.h"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace citadel {

u64
Rng::splitmix64(u64 &x)
{
    x += 0x9E3779B97F4A7C15ull;
    u64 z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Rng::Rng(u64 seed)
{
    u64 x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

void
Rng::jump(const Gf2Poly &poly)
{
    u64 acc[4] = {};
    for (std::size_t i = 0; i < 256; ++i) {
        const u64 take = 0 - ((poly[i / 64] >> (i % 64)) & 1);
        for (std::size_t k = 0; k < 4; ++k)
            acc[k] ^= s_[k] & take;
        next();
    }
    for (std::size_t k = 0; k < 4; ++k)
        s_[k] = acc[k];
}

u64
Rng::below(u64 n)
{
    assert(n > 0);
    // Lemire-style rejection to avoid modulo bias.
    u64 x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    u64 l = static_cast<u64>(m);
    if (l < n) {
        u64 t = -n % n;
        while (l < t) {
            x = next();
            m = static_cast<__uint128_t>(x) * n;
            l = static_cast<u64>(m);
        }
    }
    return static_cast<u64>(m >> 64);
}

u64
Rng::inRange(u64 lo, u64 hi)
{
    assert(lo <= hi);
    return lo + below(hi - lo + 1);
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double rate)
{
    assert(rate > 0.0);
    // 1 - uniform() is in (0, 1], so the log is finite.
    return -std::log(1.0 - uniform()) / rate;
}

u64
Rng::poisson(double lambda)
{
    assert(lambda >= 0.0);
    if (lambda == 0.0)
        return 0;
    if (lambda < 30.0)
        return poissonKnuth(std::exp(-lambda));
    // Normal approximation with continuity correction; adequate for the
    // rare large-lambda cases (e.g., stress tests), clamped at zero.
    const double mu = lambda;
    const double sigma = std::sqrt(lambda);
    // Box-Muller.
    double u1 = 1.0 - uniform();
    double u2 = uniform();
    double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    double v = mu + sigma * z + 0.5;
    return v <= 0.0 ? 0 : static_cast<u64>(v);
}

ZipfCdf::ZipfCdf(u64 n, double theta) : n_(n), theta_(theta)
{
    if (n == 0)
        throw std::invalid_argument("ZipfCdf: n must be positive");
    if (!(theta >= 0.0))
        throw std::invalid_argument("ZipfCdf: theta must be >= 0");
    if (theta == 0.0)
        return; // uniform fast path, no table
    cdf_.resize(n);
    double total = 0.0;
    for (u64 r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
        cdf_[r] = total;
    }
    for (u64 r = 0; r < n; ++r)
        cdf_[r] /= total;
    cdf_[n - 1] = 1.0; // guard against rounding shortfall
    // guide_[j]: the first rank whose CDF exceeds j / m. The CDF does
    // not decrease, so each entry continues the previous one's scan.
    guide_.resize(std::bit_ceil(n));
    const double m = static_cast<double>(guide_.size());
    u64 r = 0;
    for (u64 j = 0; j < guide_.size(); ++j) {
        const double at = static_cast<double>(j) / m;
        while (cdf_[r] <= at)
            ++r;
        guide_[j] = r;
    }
}

u64
ZipfCdf::rank(double u) const
{
    assert(u >= 0.0 && u < 1.0);
    if (cdf_.empty()) {
        const u64 r = static_cast<u64>(u * static_cast<double>(n_));
        return r < n_ ? r : n_ - 1;
    }
    // First rank whose CDF exceeds u; cdf_[n - 1] = 1 > u ends the
    // scan.
    u64 r = guide_[static_cast<std::size_t>(
        u * static_cast<double>(guide_.size()))];
    while (cdf_[r] <= u)
        ++r;
    return r;
}

} // namespace citadel
