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
#include <cassert>
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
 * A polynomial over GF(2) of degree below 256: bit i % 64 of word
 * i / 64 is the coefficient of x^i.
 *
 * xoshiro256's state update is a linear map T on 256 bits over GF(2)
 * (xors, shifts and rotates), so its characteristic polynomial P has
 * P(T) = 0 (Cayley-Hamilton). Then T^d = r(T) for r = x^d mod P, and
 * the state d steps on is the xor of the states i steps on, i over the
 * set bits of r: a jump by any d costs 256 steps (Haramoto et al.,
 * "Efficient Jump Ahead for F2-Linear Random Number Generators", 2008).
 * The output scrambler (the ** multiplies) is not linear, but it only
 * reads the state, so a jumped state draws the very stream the skipped
 * draws lead into.
 */
using Gf2Poly = std::array<u64, 4>;

/**
 * xoshiro256's characteristic polynomial P, less its x^256 term. It
 * is primitive, so every nonzero state has period 2^256 - 1, and
 * test_rng re-derives it by Berlekamp-Massey from a stepped state bit.
 */
inline constexpr Gf2Poly kXoshiroCharPoly = {
    0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull, 0x04b4edcf26259f85ull,
    0x0003c03c3f3ecb19ull};

/** a * b mod P, by shift-and-add from b's top coefficient down. */
constexpr Gf2Poly
gf2MulModP(const Gf2Poly &a, const Gf2Poly &b)
{
    Gf2Poly r{};
    for (std::size_t i = 256; i-- > 0;) {
        // r *= x: the x^256 that shifts out reduces to P's low terms.
        const u64 carry = r[3] >> 63;
        for (std::size_t w = 3; w > 0; --w)
            r[w] = (r[w] << 1) | (r[w - 1] >> 63);
        r[0] <<= 1;
        const u64 bit = (b[i / 64] >> (i % 64)) & 1;
        for (std::size_t w = 0; w < 4; ++w)
            r[w] ^= (kXoshiroCharPoly[w] & (0 - carry)) ^ (a[w] & (0 - bit));
    }
    return r;
}

/** x^d mod P: Rng::jump(xoshiroJumpPoly(d)) moves d draws ahead. */
constexpr Gf2Poly
xoshiroJumpPoly(u64 d)
{
    Gf2Poly r{1, 0, 0, 0};
    Gf2Poly sq{2, 0, 0, 0}; // x^(2^k) at bit k of d
    for (; d != 0; d >>= 1) {
        if (d & 1)
            r = gf2MulModP(r, sq);
        sq = gf2MulModP(sq, sq);
    }
    return r;
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

    /** Uniform integer in [0, n) for n > 0, without modulo bias
     *  (Lemire's multiply-and-reject). */
    u64
    below(u64 n)
    {
        assert(n > 0);
        u64 x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        u64 l = static_cast<u64>(m);
        if (l < n) [[unlikely]] {
            const u64 t = -n % n;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * n;
                l = static_cast<u64>(m);
            }
        }
        return static_cast<u64>(m >> 64);
    }

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

    /**
     * Move `d` draws ahead in 256 steps, for poly = xoshiroJumpPoly(d):
     * the state becomes sum over set bits i of poly of the state i
     * steps on (see Gf2Poly).
     */
    void jump(const Gf2Poly &poly);

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
