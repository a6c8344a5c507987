#include "sim/llc.h"

#include "common/log.h"

namespace citadel {

Llc::Llc(u64 capacity_bytes, u32 ways, u32 line_bytes) : ways_(ways)
{
    const u64 lines = capacity_bytes / line_bytes;
    if (ways_ == 0 || lines == 0 || lines % ways_ != 0)
        fatal("Llc: bad geometry (capacity %llu, ways %u)",
              static_cast<unsigned long long>(capacity_bytes), ways_);
    sets_ = static_cast<u32>(lines / ways_);
    tags_.assign(lines, kEmpty);
    lastUse_.assign(lines, 0);
    flags_.assign(lines, 0);
}

u64
Llc::setBase(LineAddr addr) const
{
    return (addr.value() % sets_) * ways_;
}

bool
Llc::probeParity(LineAddr addr)
{
    ++stats_.parityProbes;
    const u64 base = setBase(addr);
    for (u64 i = base; i < base + ways_ && tags_[i] != kEmpty; ++i) {
        if (tags_[i] == addr.value()) {
            ++stats_.parityHits;
            flags_[i] |= kDirty;
            lastUse_[i] = ++useClock_;
            return true;
        }
    }
    return false;
}

Llc::Victim
Llc::fill(LineAddr addr, bool dirty, bool parity)
{
    if (parity)
        ++stats_.parityFills;
    else
        ++stats_.dataFills;

    // One pass: a resident line is refilled in place (no later way can
    // hold it once an empty way is seen); otherwise the victim is the
    // first empty way, else the least recently used.
    const u64 base = setBase(addr);
    u64 v = base;
    for (u64 i = base; i < base + ways_; ++i) {
        if (tags_[i] == addr.value()) {
            if (dirty)
                flags_[i] |= kDirty;
            lastUse_[i] = ++useClock_;
            return {};
        }
        if (tags_[i] == kEmpty) {
            v = i;
            break;
        }
        if (lastUse_[i] < lastUse_[v])
            v = i;
    }

    Victim out;
    if (tags_[v] != kEmpty) {
        out.valid = true;
        out.addr = LineAddr{tags_[v]};
        out.dirty = (flags_[v] & kDirty) != 0;
        out.parity = (flags_[v] & kParity) != 0;
        if (out.dirty) {
            if (out.parity)
                ++stats_.dirtyParityEvictions;
            else
                ++stats_.dirtyDataEvictions;
        }
    }

    tags_[v] = addr.value();
    flags_[v] = static_cast<u8>((dirty ? kDirty : 0) |
                                (parity ? kParity : 0));
    lastUse_[v] = ++useClock_;
    return out;
}

} // namespace citadel
