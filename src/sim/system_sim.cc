#include "sim/system_sim.h"

#include <algorithm>
#include <cmath>

#include "common/kernels.h"
#include "common/log.h"
#include "sim/llc_match.h"
#include "sim/retirement.h"

namespace citadel {

namespace {

/** Retired instructions per memory cycle when unstalled: a 3.2GHz
 *  core at IPC 2 against the 800MHz memory clock. */
constexpr u64 kInsnsPerMemCycle = 8;

/** Maximum outstanding read misses per core (MLP window). */
constexpr u32 kMlp = 8;

/** LLC associativity (Table II: 8-way). */
constexpr u32 kLlcWays = 8;

/** Rounds of the LLC warm-up drawn and filled per block. */
constexpr std::size_t kWarmBlock = 256;

/**
 * One block of the LLC warm-up as its fills see it: for rounds r in
 * [0, rounds), core c's line at lines[c * kWarmBlock + r] and its
 * dirty bit at bit c % 8 of dirty[c / 8 * kWarmBlock + r]. Every core
 * fills in each round but a partial last one, where only the first
 * `last` do (`last` 0: the last round is full).
 */
struct WarmBlock
{
    const LineAddr *lines;
    const u8 *dirty;
    std::size_t rounds;
    std::size_t cores;
    std::size_t last;
};

/** The block's fills in round-robin order, Llc::fillWith<Match>
 *  inlined, each fill's victim in hand. */
template <auto Match>
[[gnu::always_inline]] inline void
warmFills(Llc &llc, WarmBlock b)
{
    constexpr std::size_t kLanes = RngLanes::kLanes;
    for (std::size_t r = 0; r < b.rounds; ++r) {
        const std::size_t width =
            r + 1 == b.rounds && b.last != 0 ? b.last : b.cores;
        for (std::size_t c = 0; c < width; ++c) {
            const bool dirty =
                (b.dirty[c / kLanes * kWarmBlock + r] >> (c % kLanes)) & 1;
            const Llc::Victim victim =
                llc.fillWith<Match>(b.lines[c * kWarmBlock + r], dirty, false);
            (void)victim;
        }
    }
}

/** The warm-up's fills around one tag compare (sim/llc_match.h). */
struct WarmFillsOps
{
    void (*fills)(Llc &llc, WarmBlock block);
    /// "scalar-u64", "vector2x4x64", "vector2x4x64-avx2" or
    /// "vector8x64-avx512", for reporting.
    const char *path;
};

template <auto Match>
void
warmFillsEntry(Llc &llc, WarmBlock b)
{
    warmFills<Match>(llc, b);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

[[gnu::target("avx2"), gnu::flatten]] void
warmFillsAvx2(Llc &llc, WarmBlock b)
{
    warmFills<matchMaskAvx2>(llc, b);
}

[[gnu::target("avx512f"), gnu::flatten]] void
warmFillsAvx512(Llc &llc, WarmBlock b)
{
    warmFills<matchMaskAvx512>(llc, b);
}

#endif

/**
 * Every warm-fill entry this build compiled and this CPU runs, in
 * zeroScanEntries()' order and with its mode mapping, but for one
 * case: with no ISA lowering, matchMask is listed last again, so Auto
 * keeps it. The portable compare fills slower than matchMask on an
 * x86 host, and no host without an ISA lowering has timed it.
 */
std::span<const WarmFillsOps>
warmFillsEntries()
{
    static const std::vector<WarmFillsOps> entries = [] {
        std::vector<WarmFillsOps> e{
            {&warmFillsEntry<matchMask>, "scalar-u64"},
            {&warmFillsEntry<matchMaskVector>, "vector2x4x64"}};
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
        if (cpuHasAvx2())
            e.push_back({&warmFillsAvx2, "vector2x4x64-avx2"});
        if (cpuHasAvx512())
            e.push_back({&warmFillsAvx512, "vector8x64-avx512"});
#endif
        if (e.size() == 2)
            e.push_back(e[0]);
        return e;
    }();
    return entries;
}

} // namespace

SystemSim::SystemSim(const SimConfig &cfg, const BenchmarkProfile &profile)
    : cfg_(cfg), profile_(profile), dirtyOdds_(Rng::odds(profile.writeFrac)),
      mem_(cfg),
      llc_(cfg.llcBytes, kLlcWays, cfg.geom.lineBytes)
{
    for (u32 c = 0; c < cfg_.cores; ++c) {
        Rng rng(cfg_.seed ^ (0x8CB92BA72F3D8DD7ull * (c + 1)));
        cores_.emplace_back(
            AddressStream(profile_, c, cfg_.geom.totalLines(),
                          cfg_.seed + 31 * c),
            rng);
        sampleNextMiss(cores_.back());
    }

    // Warm the LLC so measurements start in steady state (the paper
    // simulates a 1B-instruction slice of a long-running program; our
    // scaled runs would otherwise spend most of their time filling a
    // cold 8MB cache and never produce writebacks). Fills only; no
    // timing, no stats-relevant parity traffic.
    //
    // The cores fill round-robin, each fill's dirty bit drawn from its
    // core's generator, in blocks of rounds. A block draws each core's
    // stream lines in one batch (nextLines) and every core's dirty
    // bits in one lane step per round (chanceLanes, up to eight cores
    // a lane group), then fills in round order with the tag compare
    // the kernel mode picks (warmFillsEntries). When the cores do not
    // divide the fill count, the last round is partial and its cores
    // draw their dirty bits one by one, so no generator draws past its
    // own fills.
    const u64 warm_fills = 2 * (cfg_.llcBytes / cfg_.geom.lineBytes);
    const std::size_t cores = cores_.size();
    if (cores == 0)
        return;
    constexpr std::size_t kLanes = RngLanes::kLanes;
    const std::size_t groups = (cores + kLanes - 1) / kLanes;
    const u64 rounds = (warm_fills + cores - 1) / cores;
    const std::size_t last = static_cast<std::size_t>(warm_fills % cores);
    const ChanceLanesFn chance = chanceLanesOps().draw;
    const auto fills = activeEntry(warmFillsEntries()).fills;
    std::vector<LineAddr> lines(cores * kWarmBlock);
    std::vector<u8> dirty(groups * kWarmBlock);
    for (u64 round = 0; round < rounds; round += kWarmBlock) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<u64>(kWarmBlock, rounds - round));
        const std::size_t partial = round + n == rounds ? last : 0;
        const std::size_t full = n - (partial != 0);
        for (std::size_t c = 0; c < cores; ++c)
            cores_[c].stream.nextLines(&lines[c * kWarmBlock],
                                       full + (c < partial));
        for (std::size_t g = 0; g < groups; ++g) {
            RngLanes lanes{};
            const std::size_t width = std::min(kLanes, cores - g * kLanes);
            for (unsigned l = 0; l < width; ++l)
                lanes.load(l, cores_[g * kLanes + l].rng);
            chance(lanes, dirtyOdds_, &dirty[g * kWarmBlock], full);
            for (unsigned l = 0; l < width; ++l)
                lanes.store(l, cores_[g * kLanes + l].rng);
            if (partial != 0)
                dirty[g * kWarmBlock + full] = 0;
        }
        for (std::size_t c = 0; c < partial; ++c)
            dirty[c / kLanes * kWarmBlock + full] |= static_cast<u8>(
                cores_[c].rng.chance(dirtyOdds_) << (c % kLanes));
        fills(llc_, {lines.data(), dirty.data(), n, cores, partial});
    }
}

const char *
SystemSim::warmFillPath()
{
    return activeEntry(warmFillsEntries()).path;
}

LineAddr
SystemSim::parityLineFor(LineAddr data_line) const
{
    return mem_.addressMap().d1ParityLine(data_line);
}

LineAddr
SystemSim::physicalFor(LineAddr line) const
{
    return mem_.addressMap().parityToPhysical(line);
}

void
SystemSim::sampleNextMiss(Core &core)
{
    // Geometric gap between LLC misses with mean 1000/MPKI.
    const double mean = 1000.0 / std::max(0.001, profile_.mpki);
    const double gap = core.rng.exponential(1.0 / mean);
    core.nextMissAt =
        core.retired + std::max<u64>(1, static_cast<u64>(gap + 0.5));
}

void
SystemSim::trackRead(u64 token, u32 core_idx, LineAddr line, bool replay)
{
    const u32 slot = MemorySystem::tokenSlot(token);
    if (slot >= pendingReads_.size())
        pendingReads_.resize(mem_.tokenSlots());
    pendingReads_[slot] = {token, core_idx, line, replay};
}

void
SystemSim::queueRawWrite(LineAddr phys)
{
    if (mem_.canAcceptWrite(phys))
        mem_.issueWrite(phys);
    else
        pendingWritebacks_.push_back({phys, true});
}

bool
SystemSim::processWriteback(LineAddr line)
{
    if (!mem_.canAcceptWrite(line))
        return false;

    switch (cfg_.ras) {
      case RasTraffic::None:
        mem_.issueWrite(line);
        break;

      case RasTraffic::ThreeDPCached: {
        // Read-before-write to form the parity delta (Fig 12 action 2).
        mem_.issueRead(line, true); // system read, nobody waits
        mem_.issueWrite(line);
        const LineAddr parity = parityLineFor(line);
        if (!llc_.probeParity(parity)) {
            // Fig 12 action 4: fetch parity from memory, install in LLC.
            mem_.issueRead(physicalFor(parity), true);
            const Llc::Victim v = llc_.fill(parity, true, true);
            // The victim may itself be a dirty parity line; defer it
            // as a raw physical write so it is never re-processed as
            // data (no RBW / parity-of-parity traffic).
            if (v.valid && v.dirty)
                pendingWritebacks_.push_back(
                    v.parity ? PendingWb{physicalFor(v.addr), true}
                             : PendingWb{v.addr, false});
        }
        break;
      }

      case RasTraffic::ThreeDPUncached: {
        mem_.issueRead(line, true);
        mem_.issueWrite(line);
        // Parity update goes straight to DRAM: read-modify-write of
        // the parity line. The deferred write must NOT re-enter this
        // function, which would treat the parity line as data and
        // generate RBW + parity-of-parity traffic for it.
        const LineAddr parity = parityLineFor(line);
        mem_.issueRead(physicalFor(parity), true);
        queueRawWrite(physicalFor(parity));
        break;
      }
    }
    return true;
}

bool
SystemSim::tryWriteback(const PendingWb &wb)
{
    if (!wb.raw)
        return processWriteback(wb.line);
    if (!mem_.canAcceptWrite(wb.line))
        return false;
    mem_.issueWrite(wb.line);
    return true;
}

void
SystemSim::issueMiss(Core &core, u32 core_idx)
{
    const LineAddr line = core.stream.nextLine();
    const u64 token = mem_.issueRead(line);
    trackRead(token, core_idx, line, false);
    ++core.outstanding;

    const bool dirty = core.rng.chance(dirtyOdds_);
    const Llc::Victim v = llc_.fill(line, dirty, false);
    if (v.valid && v.dirty) {
        if (v.parity) {
            // Evicted dirty parity line: write it back to the parity
            // bank (3DP-cached mode only). Its parity maintenance is
            // itself, so it bypasses the RAS writeback path.
            queueRawWrite(physicalFor(v.addr));
        } else {
            pendingWritebacks_.push_back({v.addr, false});
        }
    }
}

void
SystemSim::handleDemandCompletion(const PendingRead &pr, u64 cycle)
{
    Core &core = cores_[pr.core];
    if (core.outstanding == 0)
        panic("system_sim: completion with no outstanding miss");

    // Replay completions are the tail of a correction chain: the data
    // was already verified, just release the core.
    if (!ras_ || pr.replay) {
        --core.outstanding;
        return;
    }

    const DemandOutcome out = ras_->onDemandRead(pr.line, cycle);
    if (out.extraReads.empty()) {
        --core.outstanding;
        return;
    }

    // Charge the correction traffic (read-retry + parity-group reads)
    // as real DRAM reads. For a corrected line the core keeps stalling
    // until the last of them completes -- that is the demand-time
    // correction latency of Section VI-B. A DUE releases the core
    // immediately (machine-check semantics: poisoned data delivered,
    // execution continues); its retry traffic still occupies the bus.
    u64 last_token = 0;
    for (const LineAddr addr : out.extraReads)
        last_token = mem_.issueRead(physicalFor(addr), true);

    if (out.kind == DemandOutcome::Kind::Corrected)
        trackRead(last_token, pr.core, pr.line, true);
    else
        --core.outstanding;
}

void
SystemSim::coreTick(u32 core_idx)
{
    Core &core = cores_[core_idx];
    if (core.retired >= cfg_.insnsPerCore)
        return;

    u64 budget = kInsnsPerMemCycle;
    while (budget > 0 && core.retired < cfg_.insnsPerCore) {
        if (core.retired < core.nextMissAt) {
            const u64 step = std::min<u64>(
                budget, core.nextMissAt - core.retired);
            core.retired += step;
            budget -= step;
            continue;
        }
        // At a miss point: need an MLP slot and writeback headroom.
        if (core.outstanding >= kMlp)
            break;
        if (pendingWritebacks_.size() > 2 * kWriteQueueCap)
            break; // write-buffer backpressure stalls the front-end
        issueMiss(core, core_idx);
        sampleNextMiss(core);
    }
}

void
SystemSim::stepCycle(u64 cycle)
{
    if (ras_)
        ras_->tick(cycle);

    // Drain pending writebacks into the memory system, oldest first;
    // a blocked head blocks the queue (ordering is part of the model).
    while (!pendingWritebacks_.empty()) {
        if (!tryWriteback(pendingWritebacks_.front()))
            break;
        pendingWritebacks_.pop_front();
    }

    for (u32 c = 0; c < cfg_.cores; ++c)
        coreTick(c);

    mem_.tick(cycle);
    for (const u64 token : mem_.drainCompletedReads()) {
        const u32 slot = MemorySystem::tokenSlot(token);
        if (slot >= pendingReads_.size() ||
            pendingReads_[slot].token != token)
            continue; // system read (RBW / parity / correction fetch)
        const PendingRead pr = pendingReads_[slot];
        pendingReads_[slot].token = 0;
        handleDemandCompletion(pr, cycle);
    }
}

u64
SystemSim::nextInterestingCycle(u64 now)
{
    u64 next = MemorySystem::kNoEvent;

    for (const Core &core : cores_) {
        if (core.retired >= cfg_.insnsPerCore)
            continue;
        const u64 stop = std::min(core.nextMissAt, cfg_.insnsPerCore);
        if (core.retired >= stop) {
            // Parked at a miss point. If it can issue, this very cycle
            // is interesting; otherwise it wakes on a completion or a
            // writeback drain, both covered by the memory events below.
            if (core.outstanding < kMlp &&
                pendingWritebacks_.size() <= 2 * kWriteQueueCap)
                return now;
            continue;
        }
        // Retiring kInsnsPerMemCycle per cycle, the core reaches its
        // stop point (miss issue, or budget end flipping all_done)
        // within this many cycles; the cycle it does so is interesting.
        const u64 gap = stop - core.retired;
        const u64 cycles =
            (gap + kInsnsPerMemCycle - 1) / kInsnsPerMemCycle;
        next = std::min(next, now + cycles - 1);
    }

    // A drainable writeback head makes `now` interesting. A blocked
    // head stays blocked until a write group issues, which is a
    // memory event (canAcceptWrite depends only on queued write
    // slices, and those change only inside MemorySystem::tick).
    if (!pendingWritebacks_.empty() &&
        mem_.canAcceptWrite(pendingWritebacks_.front().line))
        return now;

    next = std::min(next, mem_.nextEventCycle(now));
    if (next <= now)
        return now;
    if (ras_)
        next = std::min(next, ras_->nextEventCycle(now));
    return next;
}

void
SystemSim::advanceIdle(u64 cycles)
{
    const u64 insns = cycles * kInsnsPerMemCycle;
    for (Core &core : cores_) {
        if (core.retired >= cfg_.insnsPerCore)
            continue;
        const u64 stop = std::min(core.nextMissAt, cfg_.insnsPerCore);
        if (core.retired >= stop)
            continue; // parked at a miss point: retires nothing
        // nextInterestingCycle stops strictly before any core reaches
        // its stop point, so batched retirement cannot overshoot.
        if (insns >= stop - core.retired)
            panic("system_sim: idle skip crossed a core stop point");
        core.retired += insns;
    }
}

SimResult
SystemSim::run()
{
    u64 cycle = 0;
    const u64 total_insns =
        static_cast<u64>(cfg_.cores) * cfg_.insnsPerCore;

    auto all_done = [&] {
        for (const Core &c : cores_)
            if (c.retired < cfg_.insnsPerCore)
                return false;
        return true;
    };

    while (!all_done()) {
        stepCycle(cycle);
        ++cycle;

        if (cycle > (1ull << 40))
            panic("system_sim: runaway simulation");

        if (cfg_.stepping == SimStepping::Event && !all_done()) {
            const u64 next = nextInterestingCycle(cycle);
            if (next == MemorySystem::kNoEvent)
                panic("system_sim: event loop stalled with live cores");
            if (next > cycle) {
                advanceIdle(next - cycle);
                cycle = next;
            }
        }
    }

    SimResult res;
    res.cycles = cycle;
    res.insnsRetired = total_insns;
    res.mem = mem_.counters();
    res.llc = llc_.stats();
    res.power = computePower(res.mem, res.cycles);
    if (ras_ != nullptr && ras_->retirementMap() != nullptr) {
        res.retiredLines = ras_->retirementMap()->retiredLines();
        res.capacityFraction = ras_->retirementMap()->capacityFraction();
    }
    return res;
}

} // namespace citadel
