#include "sim/llc.h"

#include <bit>

#include "common/log.h"

namespace citadel {

namespace {

/** Bit w set when way w of `tags` holds `addr`; at most one is. */
unsigned
matchMask(const u64 (&tags)[Llc::kMaxWays], u64 addr)
{
    unsigned m = 0;
    for (u32 w = 0; w < Llc::kMaxWays; ++w)
        m |= static_cast<unsigned>(tags[w] == addr) << w;
    return m;
}

/**
 * `order` with resident way `w` moved to rank 0 and the ways above it
 * in recency shifted down one rank. The lowest nibble equal to `w` is
 * its rank: XOR leaves that nibble zero, and the zero-nibble test's
 * lowest set bit (its top bit) is exact, since no nibble below it
 * borrows. Nibbles past the filled ranks are ignored: `w` always
 * appears below them.
 */
u32
touch(u32 order, u32 w)
{
    const u32 x = order ^ (w * 0x11111111u);
    const u32 zero = (x - 0x11111111u) & ~x & 0x88888888u;
    const u32 upto = zero ^ (zero - 1); // ranks 0 .. rank(w)
    return (order & ~upto) | ((order << 4) & upto) | w;
}

} // namespace

Llc::Llc(u64 capacity_bytes, u32 ways, u32 line_bytes) : ways_(ways)
{
    const u64 lines = capacity_bytes / line_bytes;
    if (ways_ == 0 || ways_ > kMaxWays || lines == 0 || lines % ways_ != 0)
        fatal("Llc: bad geometry (capacity %llu, ways %u)",
              static_cast<unsigned long long>(capacity_bytes), ways_);
    sets_ = static_cast<u32>(lines / ways_);
    pow2Sets_ = std::has_single_bit(sets_);
    Tags empty;
    for (u64 &t : empty.way)
        t = kEmpty;
    tags_.assign(sets_, empty);
    state_.assign(sets_, SetState{});
}

u64
Llc::setOf(LineAddr addr) const
{
    return pow2Sets_ ? addr.value() & (sets_ - 1) : addr.value() % sets_;
}

bool
Llc::probeParity(LineAddr addr)
{
    ++stats_.parityProbes;
    const u64 set = setOf(addr);
    const unsigned hit = matchMask(tags_[set].way, addr.value());
    if (hit == 0)
        return false;
    ++stats_.parityHits;
    SetState &st = state_[set];
    const u32 w = static_cast<u32>(std::countr_zero(hit));
    st.dirty |= static_cast<u8>(hit);
    st.order = touch(st.order, w);
    return true;
}

Llc::Victim
Llc::fill(LineAddr addr, bool dirty, bool parity)
{
    stats_.parityFills += parity;
    stats_.dataFills += !parity;

    const u64 set = setOf(addr);
    u64 (&tags)[kMaxWays] = tags_[set].way;
    SetState &st = state_[set];

    // A resident line is refilled in place: it merges dirtiness and
    // becomes the most recent.
    const unsigned hit = matchMask(tags, addr.value());
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
