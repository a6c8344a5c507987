/**
 * @file
 * Deterministic pseudo-random number generation and the samplers the
 * Monte Carlo fault engine needs (uniform, Bernoulli, exponential and
 * Poisson).
 *
 * We use xoshiro256** rather than std::mt19937_64: it is ~4x faster,
 * has a tiny state, and gives us bit-for-bit reproducible streams across
 * standard-library implementations, which matters because every benchmark
 * in bench/ reports seeded, reproducible numbers.
 */

#ifndef CITADEL_COMMON_RNG_H
#define CITADEL_COMMON_RNG_H

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace citadel {

/**
 * splitmix64 finalizer: the stateless counter-hash every deterministic
 * subsystem derives per-item randomness from (soak probe addresses,
 * fleet request routing, chaos coin flips). Bit-stable across
 * platforms; hashing a counter with a subsystem-specific salt yields a
 * stream that is independent of execution order and thread count.
 */
constexpr u64
mix64(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/**
 * One xoshiro256** step over state words s0..s3, writing the output
 * rotl(s1 * 5, 7) * 9 to `out`. `W` is u64 for one generator, or a
 * GCC/Clang vector of u64 lanes for several generators stepped
 * together (the zero-cell scan, common/kernels.h): each lane is an
 * independent generator, since every operation is lane-wise. The
 * multiplies are written as shift-adds, which are the same values mod
 * 2^64 and need no 64-bit lane multiply. Every W is passed by
 * reference, so no vector value crosses a call boundary.
 */
template <typename W>
[[gnu::always_inline]] inline void
xoshiroStep(W &s0, W &s1, W &s2, W &s3, W &out)
{
    const W x5 = (s1 << 2) + s1;
    const W r = (x5 << 7) | (x5 >> 57);
    out = (r << 3) + r;
    const W t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);
}

/**
 * xoshiro256** generator (Blackman & Vigna). Seeded through splitmix64 so
 * that any 64-bit seed, including 0, produces a well-mixed state.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; all state derived via splitmix64. */
    explicit Rng(u64 seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64 random bits. */
    u64
    next()
    {
        u64 out;
        xoshiroStep(s_[0], s_[1], s_[2], s_[3], out);
        return out;
    }

    /** The uniform in [0, 1) a raw draw maps to: its 53 high bits,
     *  which a double holds exactly. */
    static double
    unit(u64 bits)
    {
        return static_cast<double>(bits >> 11) * 0x1.0p-53;
    }

    /**
     * The integer form of the test unit(x) <= p, for p in [0, 1]:
     * unit(x) <= p exactly when (x >> 11) <= unitThreshold(p). Both
     * sides of the double test scale by 2^53 exactly, and the left
     * side is then the integer x >> 11, which is <= p * 2^53 exactly
     * when it is <= floor(p * 2^53).
     */
    static u64
    unitThreshold(double p)
    {
        return static_cast<u64>(std::floor(p * 0x1.0p53));
    }

    /** Uniform double in [0, 1). */
    double uniform() { return unit(next()); }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [0, n) for n > 0, without modulo bias. */
    u64 below(u64 n);

    /** Uniform integer in [lo, hi] inclusive. */
    u64 inRange(u64 lo, u64 hi);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /**
     * A success probability precomputed for chance(Odds): the same
     * outcomes as chance(p), draw for draw, as one integer compare.
     * For p in (0, 1), unit(x) < p exactly when (x >> 11) < bound =
     * ceil(p * 2^53): the scaling by 2^53 is exact and x >> 11 is an
     * integer. That bound lies in [1, 2^53 - 1]; bound 0 (p <= 0) and
     * bound 2^53 (p >= 1) decide without a draw, as chance(p) does.
     * p must not be NaN.
     */
    struct Odds
    {
        u64 bound;
    };

    static Odds
    odds(double p)
    {
        if (p <= 0.0)
            return {0};
        if (p >= 1.0)
            return {u64{1} << 53};
        return {static_cast<u64>(std::ceil(p * 0x1.0p53))};
    }

    /** chance(p) for o = odds(p). */
    bool
    chance(Odds o)
    {
        // bound - 1 wraps for bound 0, so one compare finds both
        // no-draw cases.
        if (o.bound - 1 < (u64{1} << 53) - 1)
            return (next() >> 11) < o.bound;
        return o.bound != 0;
    }

    /** Exponential variate with the given rate (mean 1/rate). */
    double exponential(double rate);

    /**
     * Poisson variate with mean lambda. Uses Knuth multiplication for
     * small lambda and a normal approximation w/ rejection touch-up for
     * large lambda; fault rates in this codebase keep lambda << 10, so
     * the small-lambda path dominates.
     */
    u64 poisson(double lambda);

    /**
     * Small-lambda Poisson draw from a precomputed limit =
     * exp(-lambda), for 0 < lambda < 30: draw-for-draw identical to
     * poisson(lambda) on its Knuth path (poisson() itself delegates
     * here). Caller guarantees the lambda range; limit must be
     * exp(-lambda) exactly. The count is 0 exactly when the first
     * uniform is <= the limit, which the fault injector tests per rate
     * cell as an integer compare (unitThreshold) before continuing
     * this product itself (DESIGN.md section 9).
     */
    u64
    poissonKnuth(double exp_neg_lambda)
    {
        // Knuth: multiply uniforms until the product drops below
        // e^-lambda.
        u64 k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > exp_neg_lambda);
        return k - 1;
    }

    /**
     * The full 256-bit generator state, for checkpointing: a stream
     * restored via restoreState() continues bit-identically from the
     * saved point.
     */
    std::array<u64, 4>
    saveState() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    /** Resume from a saveState() snapshot. */
    void
    restoreState(const std::array<u64, 4> &state)
    {
        for (std::size_t k = 0; k < 4; ++k)
            s_[k] = state[k];
    }

  private:
    u64 s_[4];

    static u64 splitmix64(u64 &x);
};

/**
 * Eight generators' states stored word-major, the layout the zero-cell
 * scan (common/kernels.h) loads per state word as one 8-lane vector or
 * two 4-lane halves: s[k][i] is word k of lane i's state. load() and
 * store() move one lane to and from an Rng bit for bit, so a lane can
 * leave the group, draw on its own and rejoin with its stream intact.
 */
struct RngLanes
{
    static constexpr unsigned kLanes = 8;

    alignas(64) u64 s[4][kLanes];

    /** Lane i takes `rng`'s state. */
    void
    load(unsigned i, const Rng &rng)
    {
        const std::array<u64, 4> state = rng.saveState();
        for (std::size_t k = 0; k < 4; ++k)
            s[k][i] = state[k];
    }

    /** `rng` takes lane i's state. */
    void
    store(unsigned i, Rng &rng) const
    {
        rng.restoreState({s[0][i], s[1][i], s[2][i], s[3][i]});
    }
};

/**
 * Precomputed Zipf(theta) CDF over ranks [0, n): the skewed key
 * popularity the fleet traffic model replays (theta ~0.99 matches the
 * YCSB-style hot-key skew; theta = 0 is exactly uniform and takes a
 * CDF-free fast path). Sampling maps a unit double — derived from a
 * counter hash, never from generator state — to the first rank whose
 * CDF exceeds it, so it composes with the fleet's order-independent
 * determinism: rank(u) is a pure function.
 *
 * The lookup is a guide table, not a binary search: m = bit_ceil(n)
 * entries with guide[j] = rank(j / m), then a forward scan of the CDF.
 * m is a power of two, so u * m is exact and j = floor(u * m) has
 * j / m <= u: the scan starts at or below the answer and returns the
 * binary search's rank bit for bit, after about one step on average.
 */
class ZipfCdf
{
  public:
    /** Build the CDF for `n` ranks with exponent `theta` >= 0. */
    ZipfCdf(u64 n, double theta);

    /** Rank for a unit sample u in [0, 1): lower ranks are hotter. */
    u64 rank(double u) const;

    u64 size() const { return n_; }
    double theta() const { return theta_; }

  private:
    u64 n_;
    double theta_;
    std::vector<double> cdf_; ///< Empty when theta == 0 (uniform).
    std::vector<u64> guide_;  ///< guide_[j] = rank(j / size); ditto.
};

} // namespace citadel

#endif // CITADEL_COMMON_RNG_H
