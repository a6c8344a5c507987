#include "ecc/baseline_schemes.h"

#include <bit>

#include "common/log.h"

namespace citadel {

namespace {

/** The paper's symbol width: an "8-bit symbol-based code". */
constexpr u32 kSymbolBits = 8;

/** Exact-channel helper: all injected faults carry an exact channel. */
u32
channelOf(const Fault &f)
{
    if (f.channel.mask == 0)
        panic("scheme evaluator: wildcard channel unsupported");
    return f.channel.value;
}

bool
sameStack(const Fault &a, const Fault &b)
{
    return a.stack.intersects(b.stack);
}

/** Do two faults touch a common cache line? (full coordinate overlap,
 *  ignoring the bit dimension). */
bool
shareLine(const Fault &a, const Fault &b)
{
    return sameStack(a, b) && a.channel.intersects(b.channel) &&
           a.bank.intersects(b.bank) && a.row.intersects(b.row) &&
           a.col.intersects(b.col);
}

} // namespace

std::string
SymbolStripedScheme::name() const
{
    return std::string("SSC-") + stripingModeName(mode_);
}

u64
SymbolStripedScheme::symbolsPerLine(const Fault &f) const
{
    // Symbol index = bit >> log2(kSymbolBits); count distinct symbol
    // indices admitted by the bit-dimension range.
    const u32 bit_bits = cfg_->geom.bitBits();
    const u32 sym_shift = static_cast<u32>(std::countr_zero(kSymbolBits));
    const u32 sym_bits = bit_bits - sym_shift;
    const u32 sym_mask_space = (1u << sym_bits) - 1;
    const u32 significant = static_cast<u32>(
        std::popcount((f.bit.mask >> sym_shift) & sym_mask_space));
    return 1ull << (sym_bits - significant);
}

bool
SymbolStripedScheme::uncSameBank(const std::vector<Fault> &active) const
{
    const u32 ecc = cfg_->eccChannel();
    for (std::size_t i = 0; i < active.size(); ++i) {
        const Fault &f = active[i];
        const bool f_data = channelOf(f) != ecc;
        // A single data fault is fatal once it can touch two or more
        // symbols of one line (word, column, row, bank, data-TSV, ...).
        if (f_data && symbolsPerLine(f) >= 2)
            return true;
        for (std::size_t j = i + 1; j < active.size(); ++j) {
            const Fault &g = active[j];
            const bool g_data = channelOf(g) != ecc;
            if (f_data && g_data) {
                // Two concurrent faults corrupting the same line exceed
                // single-symbol correction.
                if (shareLine(f, g))
                    return true;
            } else if (f_data != g_data) {
                // Data fault plus loss of its check symbols. The ECC
                // die mirrors the (bank, row, col) coordinates of the
                // lines it protects.
                if (sameStack(f, g) && f.bank.intersects(g.bank) &&
                    f.row.intersects(g.row) && f.col.intersects(g.col))
                    return true;
            }
        }
    }
    return false;
}

bool
SymbolStripedScheme::uncAcrossBanks(const std::vector<Fault> &active) const
{
    const u32 ecc = cfg_->eccChannel();
    for (std::size_t i = 0; i < active.size(); ++i) {
        const Fault &f = active[i];
        const bool f_data = channelOf(f) != ecc;
        // One fault spanning two banks of a die kills two symbol
        // positions of every codeword it touches (channel faults,
        // address-TSV and data-TSV faults).
        if (f_data && f.banksCovered(cfg_->geom) >= 2)
            return true;
        for (std::size_t j = i + 1; j < active.size(); ++j) {
            const Fault &g = active[j];
            const bool g_data = channelOf(g) != ecc;
            if (!sameStack(f, g))
                continue;
            if (f_data && g_data) {
                if (channelOf(f) != channelOf(g))
                    continue; // codewords live within one die
                const bool same_unit =
                    f.bank.mask == 0xFFFFFFFFu &&
                    g.bank.mask == 0xFFFFFFFFu &&
                    f.bank.value == g.bank.value;
                if (!same_unit && f.row.intersects(g.row) &&
                    f.col.intersects(g.col))
                    return true;
            } else if (f_data != g_data) {
                // Check symbols in the metadata die protect every data
                // die, so any (row, col) overlap is fatal.
                if (f.row.intersects(g.row) && f.col.intersects(g.col))
                    return true;
            }
        }
    }
    return false;
}

bool
SymbolStripedScheme::uncAcrossChannels(const std::vector<Fault> &active)
    const
{
    // Symbol positions are the 8 data channels plus the ECC die; the
    // codeword extent is (stack, bank, row, col). Two faults at
    // different positions overlapping one extent are fatal.
    for (std::size_t i = 0; i < active.size(); ++i) {
        for (std::size_t j = i + 1; j < active.size(); ++j) {
            const Fault &f = active[i];
            const Fault &g = active[j];
            if (channelOf(f) == channelOf(g))
                continue;
            if (sameStack(f, g) && f.bank.intersects(g.bank) &&
                f.row.intersects(g.row) && f.col.intersects(g.col))
                return true;
        }
    }
    return false;
}

bool
SymbolStripedScheme::uncorrectable(const std::vector<Fault> &active) const
{
    switch (mode_) {
      case StripingMode::SameBank:
        return uncSameBank(active);
      case StripingMode::AcrossBanks:
        return uncAcrossBanks(active);
      case StripingMode::AcrossChannels:
        return uncAcrossChannels(active);
    }
    return true;
}

u64
Bch6EC7EDScheme::worstBitsPerLine(const Fault &f) const
{
    return f.bitsPerLine(cfg_->geom);
}

bool
Bch6EC7EDScheme::uncorrectable(const std::vector<Fault> &active) const
{
    constexpr u64 kCorrectableBits = 6;
    const u32 ecc = cfg_->eccChannel();
    for (std::size_t i = 0; i < active.size(); ++i) {
        const Fault &f = active[i];
        const bool f_data = channelOf(f) != ecc;
        if (f_data && worstBitsPerLine(f) > kCorrectableBits)
            return true;
        for (std::size_t j = i + 1; j < active.size(); ++j) {
            const Fault &g = active[j];
            const bool g_data = channelOf(g) != ecc;
            if (f_data && g_data) {
                if (shareLine(f, g) &&
                    worstBitsPerLine(f) + worstBitsPerLine(g) >
                        kCorrectableBits)
                    return true;
            } else if (f_data != g_data) {
                // Any data fault whose BCH check bits are lost.
                if (sameStack(f, g) && f.bank.intersects(g.bank) &&
                    f.row.intersects(g.row) && f.col.intersects(g.col))
                    return true;
            }
        }
    }
    return false;
}

bool
Raid5Scheme::uncorrectable(const std::vector<Fault> &active) const
{
    // One recoverable position per stripe: two faults at different
    // channel positions (including the CRC/metadata die) overlapping in
    // (bank, row, col) defeat reconstruction.
    for (std::size_t i = 0; i < active.size(); ++i) {
        for (std::size_t j = i + 1; j < active.size(); ++j) {
            const Fault &f = active[i];
            const Fault &g = active[j];
            if (channelOf(f) == channelOf(g))
                continue;
            if (sameStack(f, g) && f.bank.intersects(g.bank) &&
                f.row.intersects(g.row) && f.col.intersects(g.col))
                return true;
        }
    }
    return false;
}

} // namespace citadel
