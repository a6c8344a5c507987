#include "sim/llc.h"

#include <bit>

#include "common/log.h"
#include "sim/llc_match.h"

namespace citadel {

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
    return fillWith<matchMask>(addr, dirty, parity);
}

} // namespace citadel
