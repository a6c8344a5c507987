/**
 * @file
 * The LLC's tag compares and the fill body built on them (sim/llc.h).
 * Each compare gives bit w of its mask when way w of a set holds the
 * address: matchMask is the scalar proof, which fill() and
 * probeParity() run; the others compare all eight tags at once. A
 * loop of fills that is compiled once per compare, as the SystemSim
 * warm-up's is, includes this header and instantiates Llc::fillWith
 * with each, so the compare and the fill inline into the loop.
 */

#ifndef CITADEL_SIM_LLC_MATCH_H
#define CITADEL_SIM_LLC_MATCH_H

#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "sim/llc.h"

namespace citadel {

/** Bit w set when way w of `tags` holds `addr`; at most one is. The
 *  scalar proof of every other compare. */
[[gnu::always_inline]] inline unsigned
matchMask(const u64 (&tags)[Llc::kMaxWays], u64 addr)
{
    unsigned m = 0;
    for (u32 w = 0; w < Llc::kMaxWays; ++w)
        m |= static_cast<unsigned>(tags[w] == addr) << w;
    return m;
}

/** matchMask as portable vector code: two four-lane compares, each
 *  lane's all-ones kept at its way's bit, gathered into lane 0 by two
 *  shuffle-ORs. No vector crosses a call boundary. */
[[gnu::always_inline]] inline unsigned
matchMaskVector(const u64 (&tags)[Llc::kMaxWays], u64 addr)
{
    typedef u64 U64x4 __attribute__((vector_size(32)));
    U64x4 lo;
    U64x4 hi;
    std::memcpy(&lo, &tags[0], sizeof(lo));
    std::memcpy(&hi, &tags[4], sizeof(hi));
    const U64x4 key = U64x4{} + addr;
    U64x4 m = (reinterpret_cast<U64x4>(lo == key) & U64x4{1, 2, 4, 8}) |
              (reinterpret_cast<U64x4>(hi == key) & U64x4{16, 32, 64, 128});
    m |= __builtin_shufflevector(m, m, 2, 3, 0, 1);
    m |= __builtin_shufflevector(m, m, 1, 0, 3, 2);
    return static_cast<unsigned>(m[0]);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

/**
 * matchMask with AVX2: two vpcmpeqq, each half's four lane masks read
 * out by vmovmskpd. Not always_inline: GCC would inline it into the
 * target-less fillWith and reject the intrinsics there; flatten on a
 * target("avx2") caller inlines it once the body sits there (as the
 * zero-cell scan's MaskHit is).
 */
[[gnu::target("avx2")]] inline unsigned
matchMaskAvx2(const u64 (&tags)[Llc::kMaxWays], u64 addr)
{
    const __m256i key = _mm256_set1_epi64x(static_cast<long long>(addr));
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(&tags[0]));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(&tags[4]));
    const int l =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(lo, key)));
    const int h =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(hi, key)));
    return static_cast<unsigned>(l | (h << 4));
}

/** matchMask with AVX-512F: one vpcmpeqq of the whole set into a mask
 *  register, whose eight bits are the ways. */
[[gnu::target("avx512f")]] inline unsigned
matchMaskAvx512(const u64 (&tags)[Llc::kMaxWays], u64 addr)
{
    return _mm512_cmpeq_epu64_mask(
        _mm512_loadu_si512(&tags[0]),
        _mm512_set1_epi64(static_cast<long long>(addr)));
}

#endif

inline u64
Llc::setOf(LineAddr addr) const
{
    return pow2Sets_ ? addr.value() & (sets_ - 1) : addr.value() % sets_;
}

inline u32
Llc::touch(u32 order, u32 w)
{
    const u32 x = order ^ (w * 0x11111111u);
    const u32 zero = (x - 0x11111111u) & ~x & 0x88888888u;
    const u32 upto = zero ^ (zero - 1); // ranks 0 .. rank(w)
    return (order & ~upto) | ((order << 4) & upto) | w;
}

template <auto Match>
[[gnu::always_inline]] inline Llc::Victim
Llc::fillWith(LineAddr addr, bool dirty, bool parity)
{
    stats_.parityFills += parity;
    stats_.dataFills += !parity;

    const u64 set = setOf(addr);
    u64 (&tags)[kMaxWays] = tags_[set].way;
    SetState &st = state_[set];

    // A resident line is refilled in place: it merges dirtiness and
    // becomes the most recent.
    const unsigned hit = Match(tags, addr.value());
    if (hit != 0) {
        if (dirty)
            st.dirty |= static_cast<u8>(hit);
        st.order = touch(st.order, static_cast<u32>(std::countr_zero(hit)));
        return {};
    }

    // Otherwise the line takes the first empty way, else the least
    // recently used one (the top filled rank).
    const bool full = st.filled == ways_;
    const u32 v = full ? (st.order >> (4 * (ways_ - 1))) & 0xF : st.filled++;
    const u8 bit = static_cast<u8>(1u << v);
    Victim out;
    if (full) {
        out.valid = true;
        out.addr = LineAddr{tags[v]};
        out.dirty = (st.dirty & bit) != 0;
        out.parity = (st.parity & bit) != 0;
        // Counted without a branch: a victim is dirty about as often
        // as the workload writes, which no predictor learns.
        stats_.dirtyParityEvictions += out.dirty & out.parity;
        stats_.dirtyDataEvictions += out.dirty & !out.parity;
    }

    tags[v] = addr.value();
    st.dirty = static_cast<u8>((st.dirty & ~bit) | (dirty ? bit : 0));
    st.parity = static_cast<u8>((st.parity & ~bit) | (parity ? bit : 0));
    st.order = (st.order << 4) | v;
    return out;
}

} // namespace citadel

#endif // CITADEL_SIM_LLC_MATCH_H
