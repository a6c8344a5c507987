#include "citadel/parity_engine.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/xor_fold.h"
#include "ecc/crc32.h"

namespace citadel {

ParityEngine::GroupCounts::GroupCounts(const StackGeometry &g, u32 dies)
    : cols(g.linesPerRow()),
      d1(static_cast<std::size_t>(g.rowsPerBank) * cols, 0),
      d2(static_cast<std::size_t>(dies + 1) * cols, 0),
      d3(static_cast<std::size_t>(g.banksPerChannel) * cols, 0)
{
}

void
ParityEngine::GroupCounts::add(const CorruptLine &l, i32 delta)
{
    const u32 c = l.col.value();
    d1[static_cast<std::size_t>(l.row.value()) * cols + c] += delta;
    d2[static_cast<std::size_t>(l.die.value()) * cols + c] += delta;
    d3[static_cast<std::size_t>(l.bank.value()) * cols + c] += delta;
}

u32
ParityEngine::GroupCounts::peelDim(const CorruptLine &l, u32 dims) const
{
    const u32 c = l.col.value();
    if (d1[static_cast<std::size_t>(l.row.value()) * cols + c] == 1)
        return 1;
    if (dims >= 2 &&
        d2[static_cast<std::size_t>(l.die.value()) * cols + c] == 1)
        return 2;
    if (dims >= 3 &&
        d3[static_cast<std::size_t>(l.bank.value()) * cols + c] == 1)
        return 3;
    return 0;
}

ParityEngine::ParityEngine(const StackGeometry &geom, u64 seed) : geom_(geom)
{
    geom_.validate();
    if (geom_.stacks != 1)
        fatal("ParityEngine: single-stack geometries only");
    dies_ = geom_.channelsPerStack + 1;
    groups_ = GroupCounts(geom_, dies_);

    const u64 lines = totalLines() +
                      static_cast<u64>(geom_.rowsPerBank) * geom_.linesPerRow();
    golden_.assign(lines * geom_.lineBytes, 0);
    Rng rng(seed);
    const auto data_end =
        golden_.begin() + static_cast<long>(totalLines() * geom_.lineBytes);
    for (auto b = golden_.begin(); b != data_end; ++b)
        *b = static_cast<u8>(rng.next());
    buildParity();

    crc_.resize(lines);
    for (u64 l = 0; l < lines; ++l)
        crc_[l] = Crc32::lineCrc(l, {linePtr(golden_, l), geom_.lineBytes});
    data_ = golden_;
}

u64
ParityEngine::totalLines() const
{
    return static_cast<u64>(dies_) * geom_.banksPerChannel *
           geom_.rowsPerBank * geom_.linesPerRow();
}

u64
ParityEngine::lineIndex(DieId die, BankId bank, RowId row, ColId col) const
{
    return ((static_cast<u64>(die.value()) * geom_.banksPerChannel +
             bank.value()) *
                geom_.rowsPerBank +
            row.value()) *
               geom_.linesPerRow() +
           col.value();
}

ParityGroupId
ParityEngine::parityIndex(RowId row, ColId col) const
{
    return ParityGroupId{static_cast<u64>(row.value()) *
                             geom_.linesPerRow() +
                         col.value()};
}

u64
ParityEngine::parityLine(RowId row, ColId col) const
{
    return totalLines() + parityIndex(row, col).value();
}

u64
ParityEngine::storageLine(const CorruptLine &l) const
{
    return l.die == parityDie() ? parityLine(l.row, l.col)
                                : lineIndex(l.die, l.bank, l.row, l.col);
}

u8 *
ParityEngine::linePtr(std::vector<u8> &buf, u64 storage_line)
{
    return buf.data() + storage_line * geom_.lineBytes;
}

const u8 *
ParityEngine::linePtr(const std::vector<u8> &buf, u64 storage_line) const
{
    return buf.data() + storage_line * geom_.lineBytes;
}

bool
ParityEngine::lineCorrupt(u64 storage_line) const
{
    return Crc32::lineCrc(storage_line, {linePtr(data_, storage_line),
                                         geom_.lineBytes}) !=
           crc_[storage_line];
}

void
ParityEngine::checkCoord(DieId die, BankId bank, RowId row, ColId col) const
{
    const u32 d = die.value();
    const u32 b = bank.value();
    const u32 r = row.value();
    const u32 c = col.value();
    if (d > dies_ || (d == dies_ && b != 0) ||
        (d < dies_ && b >= geom_.banksPerChannel) ||
        r >= geom_.rowsPerBank || c >= geom_.linesPerRow())
        panic("ParityEngine: coordinate (%u, %u, %u, %u) out of range",
              d, b, r, c);
}

void
ParityEngine::buildParity()
{
    const u32 cols = geom_.linesPerRow();
    const u32 lb = geom_.lineBytes;
    const u32 banks = geom_.banksPerChannel;
    const u32 rows = geom_.rowsPerBank;

    parity2_.assign(static_cast<u64>(dies_ + 1) * cols * lb, 0);
    parity3_.assign(static_cast<u64>(banks) * cols * lb, 0);

    // Each fold destination gathers its whole group and accumulates it
    // in one xorFoldN pass (XOR is associative and commutative over
    // exact bytes, so regrouping the old per-source loop is
    // byte-identical; tests pin the images).

    // D1: a (row, col) slot folds all its (die, bank) lines into the
    // (zeroed) parity store.
    for (u32 r = 0; r < rows; ++r)
        for (u32 c = 0; c < cols; ++c) {
            foldSrcs_.clear();
            for (u32 d = 0; d < dies_; ++d)
                for (u32 b = 0; b < banks; ++b)
                    foldSrcs_.push_back(linePtr(
                        golden_, lineIndex(DieId{d}, BankId{b}, RowId{r},
                                           ColId{c})));
            xorFoldN(linePtr(golden_, parityLine(RowId{r}, ColId{c})),
                     foldSrcs_.data(), foldSrcs_.size(), lb);
        }

    // D2: a (die, col) fold covers the die's (bank, row) lines.
    for (u32 d = 0; d < dies_; ++d)
        for (u32 c = 0; c < cols; ++c) {
            foldSrcs_.clear();
            for (u32 b = 0; b < banks; ++b)
                for (u32 r = 0; r < rows; ++r)
                    foldSrcs_.push_back(linePtr(
                        golden_, lineIndex(DieId{d}, BankId{b}, RowId{r},
                                           ColId{c})));
            xorFoldN(parity2_.data() +
                         (static_cast<u64>(d) * cols + c) * lb,
                     foldSrcs_.data(), foldSrcs_.size(), lb);
        }

    // D3: a (bank, col) fold covers the bank position's (die, row)
    // lines.
    for (u32 b = 0; b < banks; ++b)
        for (u32 c = 0; c < cols; ++c) {
            foldSrcs_.clear();
            for (u32 d = 0; d < dies_; ++d)
                for (u32 r = 0; r < rows; ++r)
                    foldSrcs_.push_back(linePtr(
                        golden_, lineIndex(DieId{d}, BankId{b}, RowId{r},
                                           ColId{c})));
            xorFoldN(parity3_.data() +
                         (static_cast<u64>(b) * cols + c) * lb,
                     foldSrcs_.data(), foldSrcs_.size(), lb);
        }

    // The parity unit participates in D2 (its own fold, die slot
    // dies_) and in the D3 group of bank position 0.
    for (u32 c = 0; c < cols; ++c) {
        foldSrcs_.clear();
        for (u32 r = 0; r < rows; ++r)
            foldSrcs_.push_back(
                linePtr(golden_, parityLine(RowId{r}, ColId{c})));
        xorFoldN(parity2_.data() +
                     (static_cast<u64>(dies_) * cols + c) * lb,
                 foldSrcs_.data(), foldSrcs_.size(), lb);
        xorFoldN(parity3_.data() + static_cast<u64>(c) * lb,
                 foldSrcs_.data(), foldSrcs_.size(), lb);
    }
}

namespace {

/** Call fn(v) for every v < n that `spec` matches. */
template <class Fn>
void
forEachMatch(const DimSpec &spec, u32 n, Fn &&fn)
{
    if (spec.mask == 0xFFFFFFFFu) {
        if (spec.value < n)
            fn(spec.value);
        return;
    }
    for (u32 v = 0; v < n; ++v)
        if (spec.matches(v))
            fn(v);
}

bool
coversLine(const Fault &f, u32 d, u32 b, u32 r, u32 c)
{
    return f.channel.matches(d) && f.bank.matches(b) && f.row.matches(r) &&
           f.col.matches(c);
}

} // namespace

void
ParityEngine::corrupt(const std::vector<Fault> &faults)
{
    // Flip the *union* of covered bits: two faults overlapping on a bit
    // both corrupt it (physical faults do not cancel each other out).
    // Each fault's line mask is built once; a line is visited from the
    // first fault that flips any of its bits, ORs in the masks of the
    // later faults covering it, and takes the union in one XOR.
    const u32 lb = geom_.lineBytes;
    faultMasks_.assign(faults.size() * lb, 0);
    std::vector<u8> flips(faults.size(), 0);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        u8 *mask = faultMasks_.data() + i * lb;
        for (u32 bit = 0; bit < geom_.bitsPerLine(); ++bit)
            if (faults[i].bit.matches(bit))
                mask[bit / 8] |= static_cast<u8>(1u << (bit % 8));
        flips[i] = std::any_of(mask, mask + lb, [](u8 v) { return v != 0; });
    }

    // Sorting merges a line's old and new dirty_ entries into one, so
    // take every verdict out of groups_ first and recount after.
    for (DirtyLine &l : dirty_)
        setVerdict(l, false);

    accScratch_.resize(lb);
    auto flipLine = [&](std::size_t i, u32 d, u32 b, u32 r, u32 c) {
        for (std::size_t j = 0; j < i; ++j)
            if (flips[j] && coversLine(faults[j], d, b, r, c))
                return; // flipped with the first fault covering it
        const u8 *mask = faultMasks_.data() + i * lb;
        for (std::size_t j = i + 1; j < faults.size(); ++j)
            if (flips[j] && coversLine(faults[j], d, b, r, c)) {
                if (mask != accScratch_.data()) {
                    std::memcpy(accScratch_.data(), mask, lb);
                    mask = accScratch_.data();
                }
                for (u32 k = 0; k < lb; ++k)
                    accScratch_[k] |= faultMasks_[j * lb + k];
            }
        // The parity store is addressed as die parityDie(), bank 0.
        const CorruptLine at{DieId{d}, BankId{b}, RowId{r}, ColId{c}};
        const u64 line = storageLine(at);
        xorFold(linePtr(data_, line), mask, lb);
        dirty_.push_back({line, at});
    };

    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (!flips[i])
            continue;
        const Fault &f = faults[i];
        forEachMatch(f.channel, dies_ + 1, [&](u32 d) {
            const u32 banks = d == dies_ ? 1 : geom_.banksPerChannel;
            forEachMatch(f.bank, banks, [&](u32 b) {
                forEachMatch(f.row, geom_.rowsPerBank, [&](u32 r) {
                    forEachMatch(f.col, geom_.linesPerRow(), [&](u32 c) {
                        flipLine(i, d, b, r, c);
                    });
                });
            });
        });
    }
    // One fault's lines come out in storage order; several faults, or
    // a second corrupt() before restore(), need a sort and a merge.
    auto byLine = [](const DirtyLine &x, const DirtyLine &y) {
        return x.line < y.line;
    };
    if (!std::is_sorted(dirty_.begin(), dirty_.end(), byLine))
        std::sort(dirty_.begin(), dirty_.end(), byLine);
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end(),
                             [](const DirtyLine &x, const DirtyLine &y) {
                                 return x.line == y.line;
                             }),
                 dirty_.end());
    // A second corrupt() can flip a line back to golden, so every
    // dirty line's verdict is refreshed, not only the ones just hit.
    for (DirtyLine &l : dirty_)
        setVerdict(l, lineCorrupt(l.line));
    // The image no longer matches any set rebuild() recorded.
    built_ = false;
    undoLines_.clear();
    undoBytes_.clear();
}

void
ParityEngine::rebuild(const std::vector<Fault> &faults)
{
    if (built_ && faults == builtFrom_) {
        // Since the build only fixLine() has written: put its lines
        // back, newest first.
        const u32 lb = geom_.lineBytes;
        for (std::size_t k = undoLines_.size(); k-- > 0;) {
            DirtyLine &l = dirty_[undoLines_[k]];
            std::memcpy(linePtr(data_, l.line), undoBytes_.data() + k * lb,
                        lb);
            setVerdict(l, true);
        }
        undoLines_.clear();
        undoBytes_.clear();
        return;
    }
    restore();
    corrupt(faults);
    builtFrom_ = faults;
    built_ = true;
}

void
ParityEngine::fixViaD1(DieId die, BankId bank, RowId row, ColId col)
{
    const u32 lb = geom_.lineBytes;
    const u64 pline = parityLine(row, col);
    if (die == parityDie()) {
        // Rebuild the parity line itself from all data units.
        accScratch_.assign(lb, 0);
        foldSrcs_.clear();
        for (u32 d = 0; d < dies_; ++d)
            for (u32 b = 0; b < geom_.banksPerChannel; ++b)
                foldSrcs_.push_back(
                    linePtr(data_, lineIndex(DieId{d}, BankId{b}, row, col)));
        xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
        std::memcpy(linePtr(data_, pline), accScratch_.data(), lb);
        return;
    }
    accScratch_.assign(linePtr(data_, pline), linePtr(data_, pline) + lb);
    foldSrcs_.clear();
    for (u32 d = 0; d < dies_; ++d)
        for (u32 b = 0; b < geom_.banksPerChannel; ++b) {
            const DieId dd{d};
            const BankId bb{b};
            if (dd == die && bb == bank)
                continue;
            foldSrcs_.push_back(linePtr(data_, lineIndex(dd, bb, row, col)));
        }
    xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
    std::memcpy(linePtr(data_, lineIndex(die, bank, row, col)),
                accScratch_.data(), lb);
}

void
ParityEngine::fixViaD2(DieId die, BankId bank, RowId row, ColId col)
{
    const u32 lb = geom_.lineBytes;
    const u64 fold =
        static_cast<u64>(die.value()) * geom_.linesPerRow() + col.value();
    accScratch_.assign(parity2_.begin() + static_cast<long>(fold * lb),
                       parity2_.begin() + static_cast<long>((fold + 1) * lb));
    foldSrcs_.clear();
    if (die == parityDie()) {
        // Parity unit: its D2 fold covers the parity rows only.
        for (u32 r = 0; r < geom_.rowsPerBank; ++r) {
            const RowId rr{r};
            if (rr == row)
                continue;
            foldSrcs_.push_back(linePtr(data_, parityLine(rr, col)));
        }
        xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
        std::memcpy(linePtr(data_, parityLine(row, col)), accScratch_.data(),
                    lb);
        return;
    }
    for (u32 b = 0; b < geom_.banksPerChannel; ++b)
        for (u32 r = 0; r < geom_.rowsPerBank; ++r) {
            const BankId bb{b};
            const RowId rr{r};
            if (bb == bank && rr == row)
                continue;
            foldSrcs_.push_back(linePtr(data_, lineIndex(die, bb, rr, col)));
        }
    xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
    std::memcpy(linePtr(data_, lineIndex(die, bank, row, col)),
                accScratch_.data(), lb);
}

void
ParityEngine::fixViaD3(DieId die, BankId bank, RowId row, ColId col)
{
    const u32 lb = geom_.lineBytes;
    const u64 fold =
        static_cast<u64>(bank.value()) * geom_.linesPerRow() + col.value();
    accScratch_.assign(parity3_.begin() + static_cast<long>(fold * lb),
                       parity3_.begin() + static_cast<long>((fold + 1) * lb));
    foldSrcs_.clear();
    for (u32 d = 0; d < dies_; ++d)
        for (u32 r = 0; r < geom_.rowsPerBank; ++r) {
            const DieId dd{d};
            const RowId rr{r};
            if (dd == die && rr == row)
                continue;
            foldSrcs_.push_back(linePtr(data_, lineIndex(dd, bank, rr, col)));
        }
    if (bank == BankId{0}) {
        // Bank position 0's group includes the parity unit's rows.
        for (u32 r = 0; r < geom_.rowsPerBank; ++r) {
            const RowId rr{r};
            if (die == parityDie() && rr == row)
                continue;
            foldSrcs_.push_back(linePtr(data_, parityLine(rr, col)));
        }
    }
    xorFoldN(accScratch_.data(), foldSrcs_.data(), foldSrcs_.size(), lb);
    std::memcpy(linePtr(data_, storageLine({die, bank, row, col})),
                accScratch_.data(), lb);
}

u64
ParityEngine::corruptLineCount() const
{
    return static_cast<u64>(
        std::count_if(dirty_.begin(), dirty_.end(),
                      [](const DirtyLine &l) { return l.corrupt; }));
}

bool
ParityEngine::verdictsMatchCrc() const
{
    GroupCounts recount(geom_, dies_);
    for (const DirtyLine &l : dirty_) {
        if (l.corrupt != lineCorrupt(l.line))
            return false;
        if (l.corrupt)
            recount.add(l.at, 1);
    }
    return recount == groups_;
}

void
ParityEngine::setVerdict(DirtyLine &l, bool corrupt)
{
    if (l.corrupt != corrupt)
        groups_.add(l.at, corrupt ? 1 : -1);
    l.corrupt = corrupt;
}

std::size_t
ParityEngine::slotOf(u64 storage_line) const
{
    const auto it = std::lower_bound(
        dirty_.begin(), dirty_.end(), storage_line,
        [](const DirtyLine &l, u64 line) { return l.line < line; });
    return it != dirty_.end() && it->line == storage_line
               ? static_cast<std::size_t>(it - dirty_.begin())
               : dirty_.size();
}

std::size_t
ParityEngine::firstPeelable(u32 dims, std::size_t from) const
{
    // A line corrupt() never flipped equals golden, so its CRC matches
    // by construction: only the dirty lines can be corrupt, and their
    // cached verdicts say which are.
    for (std::size_t i = from; i < dirty_.size(); ++i)
        if (dirty_[i].corrupt && groups_.peelDim(dirty_[i].at, dims) != 0)
            return i;
    return dirty_.size();
}

void
ParityEngine::fixLine(std::size_t slot, u32 dim)
{
    DirtyLine &L = dirty_[slot];
    const u8 *old = linePtr(data_, L.line);
    undoLines_.push_back(slot);
    undoBytes_.insert(undoBytes_.end(), old, old + geom_.lineBytes);
    switch (dim) {
      case 1:
        fixViaD1(L.at.die, L.at.bank, L.at.row, L.at.col);
        break;
      case 2:
        fixViaD2(L.at.die, L.at.bank, L.at.row, L.at.col);
        break;
      case 3:
        fixViaD3(L.at.die, L.at.bank, L.at.row, L.at.col);
        break;
      default:
        panic("ParityEngine: bad fix dimension %u", dim);
    }
    if (lineCorrupt(L.line))
        panic("ParityEngine: reconstruction produced bad CRC");
    setVerdict(L, false);
}

u32
ParityEngine::groupReadCost(const CorruptLine &L, u32 dim) const
{
    // DRAM line reads needed to XOR out the target: every other line of
    // the parity group that lives in DRAM (D2/D3 parity itself is SRAM
    // at the controller, Section VI-B, so it costs no DRAM read).
    const u32 banks = geom_.banksPerChannel;
    const u32 rows = geom_.rowsPerBank;
    switch (dim) {
      case 1:
        // Group: dies_ x banks data lines + 1 parity line; read all
        // but the target.
        return dies_ * banks;
      case 2:
        return L.die == parityDie() ? rows - 1 : banks * rows - 1;
      case 3:
        return L.bank == BankId{0} ? (dies_ + 1) * rows - 1
                                   : dies_ * rows - 1;
      default:
        return 0;
    }
}

bool
ParityEngine::reconstruct(u32 dims)
{
    // Fix the first peelable line in scan order, then rescan: the
    // order every fix is made in stays that of a restarting scan.
    // Lines before `head` are all clean.
    std::size_t head = 0;
    for (;;) {
        while (head < dirty_.size() && !dirty_[head].corrupt)
            ++head;
        const std::size_t i = firstPeelable(dims, head);
        if (i == dirty_.size())
            break;
        fixLine(i, groups_.peelDim(dirty_[i].at, dims));
    }
    if (head != dirty_.size())
        return false;
    return std::all_of(dirty_.begin(), dirty_.end(), [&](const DirtyLine &l) {
        return std::memcmp(linePtr(data_, l.line), linePtr(golden_, l.line),
                           geom_.lineBytes) == 0;
    });
}

bool
ParityEngine::peelable(u32 dims) const
{
    // Peeling only ever unblocks groups, so the verdict does not depend
    // on the order lines are peeled in: sweep a copy of the counts
    // without restarting.
    GroupCounts groups = groups_;
    std::vector<u8> live(dirty_.size());
    std::size_t left = 0;
    for (std::size_t i = 0; i < dirty_.size(); ++i)
        if (dirty_[i].corrupt) {
            live[i] = 1;
            ++left;
        }
    bool progress = true;
    while (progress && left != 0) {
        progress = false;
        for (std::size_t i = 0; i < dirty_.size(); ++i)
            if (live[i] && groups.peelDim(dirty_[i].at, dims) != 0) {
                live[i] = 0;
                --left;
                groups.add(dirty_[i].at, -1);
                progress = true;
            }
    }
    return left == 0;
}

bool
ParityEngine::lineCorruptAt(DieId die, BankId bank, RowId row,
                            ColId col) const
{
    checkCoord(die, bank, row, col);
    return lineCorrupt(storageLine({die, bank, row, col}));
}

bool
ParityEngine::lineMatchesGolden(DieId die, BankId bank, RowId row,
                                ColId col) const
{
    checkCoord(die, bank, row, col);
    const u64 line = storageLine({die, bank, row, col});
    return std::memcmp(linePtr(data_, line), linePtr(golden_, line),
                       geom_.lineBytes) == 0;
}

u64
ParityEngine::imageDigest() const
{
    return fnv1a(data_);
}

ParityEngine::DemandFix
ParityEngine::correctLine(DieId die, BankId bank, RowId row, ColId col,
                          u32 dims)
{
    checkCoord(die, bank, row, col);
    DemandFix fix;
    const CorruptLine target{die, bank, row, col};
    const std::size_t t = slotOf(storageLine(target));
    if (t == dirty_.size() || !dirty_[t].corrupt) {
        fix.corrected = true;
        return fix;
    }

    while (dirty_[t].corrupt) {
        // Prefer solving the target directly; otherwise peel the first
        // solvable dependency and retry.
        const std::size_t pick = groups_.peelDim(target, dims) != 0
                                     ? t
                                     : firstPeelable(dims);
        if (pick == dirty_.size())
            break;
        const CorruptLine &at = dirty_[pick].at;
        const u32 dim = groups_.peelDim(at, dims);
        fixLine(pick, dim);
        fix.groupReads += groupReadCost(at, dim);
        ++fix.linesFixed;
        if (pick == t)
            fix.dimUsed = dim;
    }

    fix.corrected = !dirty_[t].corrupt;
    return fix;
}

void
ParityEngine::restore()
{
    for (DirtyLine &l : dirty_) {
        std::memcpy(linePtr(data_, l.line), linePtr(golden_, l.line),
                    geom_.lineBytes);
        setVerdict(l, false);
    }
    dirty_.clear();
    built_ = false;
    undoLines_.clear();
    undoBytes_.clear();
}

} // namespace citadel
