#include "ras/live_datapath.h"

#include <algorithm>
#include <limits>

#include "common/log.h"

namespace citadel {

namespace {

/** Canonical payload words of the protected records. */
u64
packRrtPayload(RowId src, RowId spare)
{
    return (u64{1} << 63) | (static_cast<u64>(src.value()) << 32) |
           spare.value();
}

u64
packBrtPayload(UnitId unit, u32 spare_id)
{
    return (u64{1} << 63) | (static_cast<u64>(unit.value()) << 32) |
           spare_id;
}

/** Parity-cache ways carry a deterministic tag: the backing parity
 *  die always holds the clean copy, so the payload only needs to be
 *  reproducible for refetch. */
u64
packParityWayPayload(StackId stack, MetaSlotId way)
{
    return (static_cast<u64>(stack.value()) << 32) | way.value();
}

ProtectedMetaStore::RecordKey
rrtRecordKey(StackId stack, UnitId unit, MetaSlotId slot)
{
    return {MetaTarget::RrtEntry, stack, unit, slot};
}

ProtectedMetaStore::RecordKey
brtRecordKey(StackId stack, MetaSlotId slot)
{
    return {MetaTarget::BrtEntry, stack, UnitId{0}, slot};
}

ProtectedMetaStore::RecordKey
tsvRecordKey(StackId stack, ChannelId channel)
{
    return {MetaTarget::TsvRegister, stack, UnitId{channel.value()},
            MetaSlotId{0}};
}

ProtectedMetaStore::RecordKey
parityCacheRecordKey(StackId stack, MetaSlotId way)
{
    return {MetaTarget::ParityCacheLine, stack, UnitId{0}, way};
}

/** Keys of the spared-fault tracking maps. */
u64
rrtSparedKey(u32 stack, UnitId unit, MetaSlotId slot)
{
    return (static_cast<u64>(stack) << 40) |
           (static_cast<u64>(unit.value()) << 8) | slot.value();
}

u64
brtSparedKey(u32 stack, MetaSlotId slot)
{
    return (static_cast<u64>(stack) << 8) | slot.value();
}

constexpr u32 kCheckpointMagic = 0x43544C52u; // "CTLR"
constexpr u32 kCheckpointVersion = 1;

/**
 * Refuse geometries whose byte-true model would exceed this (storage
 * is ~2x the modeled DRAM). Full HBM needs gigabytes; the live
 * datapath is meant for reduced geometries.
 */
constexpr u64 kMaxModelBytes = 256ull << 20;

/** Modeled cached-D1-parity ways per stack (control-plane fault
 *  targets; contents always refetchable from the parity die). */
constexpr u32 kParityCacheWays = 8;

} // namespace

LiveRasDatapath::LiveRasDatapath(const SimConfig &cfg,
                                 const LiveRasOptions &opts)
    : cfg_(cfg), opts_(opts), map_(cfg.geom),
      dies_(cfg.geom.channelsPerStack + 1),
      analytic_(opts.scheme.parityDims),
      ladder_(cfg.geom, opts.degrade), meta_(opts.meta),
      log_(opts.maxEvents)
{
    const StackGeometry &g = cfg_.geom;
    // Byte-true storage: data + golden + parity copies, per stack.
    const u64 model_bytes = 2 * static_cast<u64>(g.stacks) * dies_ *
                            g.banksPerChannel * g.rowsPerBank * g.rowBytes;
    if (model_bytes > kMaxModelBytes)
        fatal("LiveRasDatapath: geometry needs %llu model bytes "
              "(> %llu); use a reduced geometry such as "
              "StackGeometry::tiny()",
              static_cast<unsigned long long>(model_bytes),
              static_cast<unsigned long long>(kMaxModelBytes));

    sysCfg_.geom = g;
    sysCfg_.subArrayRows = std::min<u32>(sysCfg_.subArrayRows,
                                         g.rowsPerBank);
    sysCfg_.validate();
    analytic_.reset(sysCfg_);

    for (u32 s = 0; s < g.stacks; ++s) {
        StackGeometry one = g;
        one.stacks = 1;
        engines_.push_back(std::make_unique<ParityEngine>(
            one, opts_.seed ^ (0x9E3779B97F4A7C15ull * (s + 1))));
        rrt_.emplace_back(dies_ * g.banksPerChannel,
                          opts_.scheme.spareRowsPerBank);
        brt_.emplace_back(opts_.scheme.spareBanksPerStack);
        spareRowCursor_.push_back(0);
    }

    // Always-live control-plane records: one TSV redirection register
    // per data channel (payload = stand-by lanes in use) and the
    // modeled parity-cache ways.
    for (u32 s = 0; s < g.stacks; ++s) {
        for (u32 ch = 0; ch < g.channelsPerStack; ++ch)
            meta_.install(tsvRecordKey(StackId{s}, ChannelId{ch}), 0);
        for (u32 w = 0; w < kParityCacheWays; ++w)
            meta_.install(
                parityCacheRecordKey(StackId{s}, MetaSlotId{w}),
                packParityWayPayload(StackId{s}, MetaSlotId{w}));
    }
}

MetaGeometry
LiveRasDatapath::metaGeometry() const
{
    MetaGeometry mg;
    mg.rrtSlotsPerUnit = opts_.scheme.spareRowsPerBank;
    mg.brtSlots = opts_.scheme.spareBanksPerStack;
    mg.parityCacheWays = kParityCacheWays;
    return mg;
}

RasHealthSignals
LiveRasDatapath::healthSignals() const
{
    RasHealthSignals h;
    h.capacityFraction = ladder_.map().capacityFraction();
    h.retiredLines = ladder_.map().retiredLines();
    h.due = log_.counters.due;
    h.sparingDenied = log_.counters.sparingDenied;
    h.metaRecordsLost = log_.counters.metaRecordsLost;
    h.channelsDegraded = log_.counters.channelsDegraded;
    return h;
}

UnitId
LiveRasDatapath::unitId(ChannelId channel, BankId bank) const
{
    return UnitId{channel.value() * cfg_.geom.banksPerChannel +
                  bank.value()};
}

const ParityEngine &
LiveRasDatapath::engine(StackId stack) const
{
    if (stack.idx() >= engines_.size())
        panic("LiveRasDatapath: stack %u out of range", stack.value());
    return *engines_[stack.idx()];
}

void
LiveRasDatapath::logEvent(RasEvent ev)
{
    log_.append(std::move(ev));
}

bool
LiveRasDatapath::onOneStack(const Fault &f) const
{
    return f.stack.mask == 0xFFFFFFFFu && f.stack.value < cfg_.geom.stacks;
}

void
LiveRasDatapath::scheduleFault(const Fault &fault, u64 cycle)
{
    if (!onOneStack(fault))
        fatal("scheduleFault: fault must name one existing stack (%s)",
              fault.describe().c_str());
    pending_.emplace(cycle, fault);
}

void
LiveRasDatapath::checkMetaFault(const MetaFault &f, const char *who) const
{
    const MetaGeometry mg = metaGeometry();
    const StackGeometry &g = cfg_.geom;
    const char *bad = nullptr;
    switch (f.target) {
      case MetaTarget::RrtEntry:
        if (f.unit.value() >= dies_ * g.banksPerChannel ||
            f.slot.value() >= mg.rrtSlotsPerUnit)
            bad = "RRT coordinate";
        break;
      case MetaTarget::BrtEntry:
        if (f.slot.value() >= mg.brtSlots)
            bad = "BRT slot";
        break;
      case MetaTarget::TsvRegister:
        if (f.channel.value() >= g.channelsPerStack)
            bad = "channel";
        break;
      case MetaTarget::ParityCacheLine:
        if (f.slot.value() >= mg.parityCacheWays)
            bad = "parity way";
        break;
    }
    if (f.stack.value() >= g.stacks)
        bad = "stack";
    if (bad)
        fatal("%s: %s out of range (%s)", who, bad, f.describe().c_str());
}

void
LiveRasDatapath::scheduleMetaFault(const MetaFault &fault, u64 cycle)
{
    checkMetaFault(fault, "scheduleMetaFault");
    pendingMeta_.emplace(cycle, fault);
}

void
LiveRasDatapath::tick(u64 cycle)
{
    while (!pending_.empty() && pending_.begin()->first <= cycle) {
        const Fault f = pending_.begin()->second;
        pending_.erase(pending_.begin());
        materialize(f, cycle);
    }
    while (!pendingMeta_.empty() && pendingMeta_.begin()->first <= cycle) {
        const MetaFault f = pendingMeta_.begin()->second;
        pendingMeta_.erase(pendingMeta_.begin());
        materializeMeta(f, cycle);
    }
    if (opts_.scrubCycles != 0 &&
        cycle >= lastScrub_ + opts_.scrubCycles) {
        lastScrub_ = cycle;
        scrub(cycle);
    }
}

u64
LiveRasDatapath::nextEventCycle(u64 now) const
{
    // Mirror of tick(): the next fault materialization and the next
    // scrub boundary are the only cycle-driven actions. A due-but-
    // unfired event clamps to `now` so the event loop never skips it.
    u64 next = std::numeric_limits<u64>::max();
    if (!pending_.empty())
        next = std::max(now, pending_.begin()->first);
    if (!pendingMeta_.empty())
        next = std::min(next, std::max(now, pendingMeta_.begin()->first));
    if (opts_.scrubCycles != 0)
        next = std::min(next, std::max(now, lastScrub_ + opts_.scrubCycles));
    return next;
}

void
LiveRasDatapath::materialize(const Fault &f, u64 cycle)
{
    ++log_.counters.faultsInjected;
    logEvent({RasEventType::FaultInjected, cycle, LineAddr{}, 0, 0, f.cls,
              f.describe()});

    // TSV-SWAP absorbs TSV faults while stand-by budget remains AND
    // the channel's redirection register is still alive; the register
    // steers around the faulty TSV before any data is lost (Section V).
    if (opts_.scheme.enableTsvSwap && f.fromTsv) {
        const u64 key = (static_cast<u64>(f.stack.value) << 32) |
                        f.channel.value;
        if (tsvBroken_.count(key) == 0) {
            u32 &used = tsvUsed_[key];
            if (used < opts_.scheme.standbyTsvsPerChannel) {
                ++used;
                ++log_.counters.tsvRepairs;
                ++log_.counters.faultsAbsorbed;
                absorbedTsv_[key].push_back(f);
                // The register's protected shadow tracks its content.
                meta_.install(tsvRecordKey(StackId{f.stack.value},
                                           ChannelId{f.channel.value}),
                              used);
                logEvent({RasEventType::TsvRepaired, cycle, LineAddr{}, 0,
                          0, f.cls, f.describe()});
                return;
            }
        }
    }

    // Faults inside an already-decommissioned bank never touch live
    // data: the spare bank serves it. Track them against the BRT slot
    // so a lost BRT record reactivates them with the original fault.
    if (opts_.scheme.enableDds && inSparedBank(f)) {
        ++log_.counters.faultsAbsorbed;
        recordSparedBankAbsorb(f);
        return;
    }

    // Faults wholly inside a region the ladder already retired touch
    // no live data either; the capacity is gone, not at risk.
    if (faultRetired(f)) {
        ++log_.counters.faultsAbsorbed;
        ++log_.counters.retiredAbsorbed;
        return;
    }

    // A bank that keeps collecting permanent faults *after* DDS has
    // already repaired it (live RRT entries) is a re-faulting region:
    // strike it, and past the threshold retire it proactively instead
    // of burning more spares on it. First-time faults go to the spare
    // pipeline untouched.
    if (!f.transient && f.stack.mask == 0xFFFFFFFFu &&
        f.channel.mask == 0xFFFFFFFFu && f.bank.mask == 0xFFFFFFFFu &&
        f.channel.value < cfg_.geom.channelsPerStack &&
        f.bank.value < cfg_.geom.banksPerChannel &&
        rrt_[f.stack.value].used(unitId(ChannelId{f.channel.value},
                                        BankId{f.bank.value})) > 0) {
        const DegradationLadder::Action act = ladder_.onRefault(
            StackId{f.stack.value}, ChannelId{f.channel.value},
            BankId{f.bank.value});
        noteLadder(act, cycle, f.cls, f.describe());
        if (act.any() && faultRetired(f)) {
            ++log_.counters.faultsAbsorbed;
            ++log_.counters.retiredAbsorbed;
            dropRetired(cycle);
            rebuildEngines();
            differentialCheck(cycle);
            return;
        }
    }

    active_.push_back(f);
    rebuildEngines();
    differentialCheck(cycle);
}

void
LiveRasDatapath::materializeMeta(const MetaFault &f, u64 cycle)
{
    ++log_.counters.metaFaultsInjected;
    logEvent({RasEventType::MetaFaultInjected, cycle, LineAddr{}, 0, 0,
              FaultClass::Bit, f.describe()});

    if (meta_.applyFault(f) == ProtectedMetaStore::ApplyResult::NoRecord) {
        // The strike hit an idle slot: there is no stored payload to
        // protect, but a permanent defect makes the SRAM unusable, so
        // retire the slot from future allocation right away.
        if (!f.transient) {
            if (f.target == MetaTarget::RrtEntry)
                rrt_[f.stack.idx()].killSlot(f.unit, f.slot);
            else if (f.target == MetaTarget::BrtEntry)
                brt_[f.stack.idx()].killSlot(f.slot);
        }
    }
}

void
LiveRasDatapath::recordSparedBankAbsorb(const Fault &f)
{
    if (f.stack.mask != 0xFFFFFFFFu || f.channel.mask != 0xFFFFFFFFu ||
        f.bank.mask != 0xFFFFFFFFu)
        return;
    const u32 stack = f.stack.value;
    const UnitId unit = unitId(ChannelId{f.channel.value},
                               BankId{f.bank.value});
    const auto slot = brt_[stack].slotOf(unit);
    if (!slot)
        return;
    BrtSlotState &st = brtSpared_[brtSparedKey(stack, *slot)];
    st.unit = unit.value();
    st.faults.push_back(f);
}

void
LiveRasDatapath::scrub(u64 cycle)
{
    // Scrub rewrites every line from corrected data: transient faults
    // vanish; DDS retires permanent ones into spare storage.
    std::erase_if(active_, [](const Fault &f) { return f.transient; });

    // The consistency scrub verifies the control plane first, so a
    // corrupted RRT/BRT/swap record cannot steer the data pass below
    // (and faults reactivated by a lost record re-enter the spare
    // pipeline in the same pass).
    metaScrub(cycle);

    if (opts_.scheme.enableDds) {
        std::erase_if(active_, [&](const Fault &f) {
            if (inSparedBank(f)) {
                recordSparedBankAbsorb(f);
                return true;
            }
            if (trySpare(f, cycle))
                return true;
            ++log_.counters.sparingDenied;
            logEvent({RasEventType::SparingDenied, cycle, LineAddr{}, 0, 0, f.cls,
                      f.describe()});
            // Spare budget exhausted: stop repairing, start retiring
            // capacity (the ladder's SparingDenied rung). Only the
            // OS-visible data space can be retired; parity-die faults
            // stay active and weaken coverage instead.
            if (!f.transient && f.stack.mask == 0xFFFFFFFFu &&
                f.channel.mask == 0xFFFFFFFFu &&
                f.channel.value < cfg_.geom.channelsPerStack) {
                DegradationLadder::Action act;
                if (f.bank.mask == 0xFFFFFFFFu &&
                    f.bank.value < cfg_.geom.banksPerChannel)
                    act = ladder_.onSparingDenied(
                        StackId{f.stack.value}, ChannelId{f.channel.value},
                        BankId{f.bank.value});
                else if (f.bank.mask != 0xFFFFFFFFu)
                    act = ladder_.degradeChannel(
                        StackId{f.stack.value}, ChannelId{f.channel.value});
                noteLadder(act, cycle, f.cls, f.describe());
            }
            return false;
        });
        std::erase_if(active_,
                      [&](const Fault &f) { return inSparedBank(f); });
    }

    dropRetired(cycle);
    rebuildEngines();
    differentialCheck(cycle);
}

void
LiveRasDatapath::metaScrub(u64 cycle)
{
    const ProtectedMetaStore::ScrubOutcome out = meta_.scrub();
    log_.counters.metaCorrected += out.corrected;
    log_.counters.metaScrubRetries += out.retries;
    log_.counters.metaBackoffCycles += out.backoffCyclesSpent;
    log_.counters.metaMirrorRestored += out.mirrorRestores;
    if (out.corrected)
        logEvent({RasEventType::MetaCorrected, cycle, LineAddr{}, 0, 0,
                  FaultClass::Bit,
                  std::to_string(out.corrected) + " records"});
    if (out.mirrorRestores)
        logEvent({RasEventType::MetaMirrorRestored, cycle, LineAddr{}, 0,
                  0, FaultClass::Bit,
                  std::to_string(out.mirrorRestores) + " records"});

    for (const ProtectedMetaStore::RecordKey &key : out.lost) {
        ++log_.counters.metaRecordsLost;
        logEvent({RasEventType::MetaRecordLost, cycle, LineAddr{}, 0, 0,
                  FaultClass::Bit, metaTargetName(key.target)});
        switch (key.target) {
          case MetaTarget::RrtEntry: {
            // The remap entry is gone and its SRAM is suspect: retire
            // the slot and put the fault it covered back in play so
            // both models keep seeing the same world.
            rrt_[key.stack.idx()].killSlot(key.unit, key.slot);
            const auto it = rrtSpared_.find(
                rrtSparedKey(key.stack.value(), key.unit, key.slot));
            if (it != rrtSpared_.end()) {
                active_.push_back(it->second);
                ++log_.counters.faultsReactivated;
                rrtSpared_.erase(it);
            }
            break;
          }
          case MetaTarget::BrtEntry: {
            brt_[key.stack.idx()].killSlot(key.slot);
            const auto it = brtSpared_.find(
                brtSparedKey(key.stack.value(), key.slot));
            if (it != brtSpared_.end()) {
                for (const Fault &f : it->second.faults) {
                    active_.push_back(f);
                    ++log_.counters.faultsReactivated;
                }
                brtSpared_.erase(it);
            }
            break;
          }
          case MetaTarget::TsvRegister: {
            // unit doubles as the channel index for TSV records.
            const u64 k = (static_cast<u64>(key.stack.value()) << 32) |
                          key.unit.value();
            tsvBroken_.insert(k);
            tsvUsed_.erase(k);
            const auto it = absorbedTsv_.find(k);
            if (it != absorbedTsv_.end()) {
                for (const Fault &f : it->second) {
                    active_.push_back(f);
                    ++log_.counters.faultsReactivated;
                }
                absorbedTsv_.erase(it);
            }
            break;
          }
          case MetaTarget::ParityCacheLine:
            // The parity die always holds a clean copy: refetch and
            // reinstall instead of escalating.
            ++log_.counters.parityCacheRefetches;
            logEvent({RasEventType::ParityCacheRefetched, cycle,
                      LineAddr{}, 0, 0, FaultClass::Bit, ""});
            meta_.install(parityCacheRecordKey(key.stack, key.slot),
                          packParityWayPayload(key.stack, key.slot));
            break;
        }
    }
}

bool
LiveRasDatapath::faultRetired(const Fault &f) const
{
    if (f.stack.mask != 0xFFFFFFFFu || f.channel.mask != 0xFFFFFFFFu)
        return false;
    const RetirementMap &m = ladder_.map();
    const StackId s{f.stack.value};
    const ChannelId ch{f.channel.value};
    if (m.channelDegraded(s, ch))
        return true;
    if (f.bank.mask != 0xFFFFFFFFu)
        return false;
    const BankId b{f.bank.value};
    if (m.bankRetired(s, ch, b))
        return true;
    if (f.rowsCovered(cfg_.geom) == 1)
        return m.rowOffline(s, ch, b,
                            RowId{f.row.value & (cfg_.geom.rowsPerBank - 1)});
    return false;
}

void
LiveRasDatapath::dropRetired(u64 /*cycle*/)
{
    const std::size_t before = active_.size();
    std::erase_if(active_, [&](const Fault &f) { return faultRetired(f); });
    log_.counters.retiredAbsorbed += before - active_.size();
}

void
LiveRasDatapath::noteLadder(const DegradationLadder::Action &act,
                            u64 cycle, FaultClass cls,
                            const std::string &detail)
{
    if (act.rowOfflined) {
        ++log_.counters.pagesOfflined;
        logEvent({RasEventType::PageOfflined, cycle, LineAddr{}, 0, 0,
                  cls, detail});
    }
    if (act.bankRetired) {
        ++log_.counters.banksRetired;
        logEvent({RasEventType::BankRetired, cycle, LineAddr{}, 0, 0,
                  cls, detail});
    }
    if (act.channelDegraded) {
        ++log_.counters.channelsDegraded;
        logEvent({RasEventType::ChannelDegraded, cycle, LineAddr{}, 0, 0,
                  cls, detail});
    }
}

bool
LiveRasDatapath::inSparedBank(const Fault &f) const
{
    if (f.stack.mask != 0xFFFFFFFFu || f.channel.mask != 0xFFFFFFFFu ||
        f.bank.mask != 0xFFFFFFFFu)
        return false;
    if (f.stack.value >= brt_.size())
        return false;
    return brt_[f.stack.value]
        .lookup(unitId(ChannelId{f.channel.value}, BankId{f.bank.value}))
        .has_value();
}

bool
LiveRasDatapath::trySpare(const Fault &f, u64 cycle)
{
    if (f.transient)
        return false; // transients clear at scrub; nothing to retire
    if (f.stack.mask != 0xFFFFFFFFu || f.channel.mask != 0xFFFFFFFFu ||
        f.bank.mask != 0xFFFFFFFFu)
        return false; // multi-bank faults have no single spare target
    const u32 stack = f.stack.value;
    const UnitId unit = unitId(ChannelId{f.channel.value},
                               BankId{f.bank.value});

    if (f.rowsCovered(cfg_.geom) == 1) {
        const RowId row{f.row.value & (cfg_.geom.rowsPerBank - 1)};
        u32 &cursor = spareRowCursor_[stack];
        const RowId spare{cursor % cfg_.geom.rowsPerBank};
        const auto slot = rrt_[stack].insertSlot(unit, row, spare);
        if (slot) {
            ++cursor;
            ++log_.counters.rowsSpared;
            // Shadow the live entry word and remember the fault it
            // covers, so a lost record can reactivate it.
            meta_.install(rrtRecordKey(StackId{stack}, unit, *slot),
                          packRrtPayload(row, spare));
            rrtSpared_[rrtSparedKey(stack, unit, *slot)] = f;
            logEvent({RasEventType::RowSpared, cycle, LineAddr{}, 0, 0, f.cls,
                      f.describe()});
            return true;
        }
        // RRT exhausted: the bank has failed; escalate (Section VII-C).
    }

    const u32 spareId = brt_[stack].used();
    const auto slot = brt_[stack].insertSlot(unit, spareId);
    if (slot) {
        ++log_.counters.banksSpared;
        meta_.install(brtRecordKey(StackId{stack}, *slot),
                      packBrtPayload(unit, spareId));
        BrtSlotState &st = brtSpared_[brtSparedKey(stack, *slot)];
        st.unit = unit.value();
        st.faults.push_back(f);
        logEvent({RasEventType::BankSpared, cycle, LineAddr{}, 0, 0, f.cls,
                  f.describe()});
        return true;
    }
    return false;
}

void
LiveRasDatapath::spareCovering(const LineCoord &c, u64 cycle)
{
    // A corrected permanent fault would re-correct on every access;
    // retire the covering fault(s) into spare storage now (the paper
    // batches this at scrub time; demand-time retirement gives the
    // remap the paper's steady-state behavior within a short run).
    std::erase_if(active_, [&](const Fault &f) {
        if (f.transient)
            return false;
        if (f.stack.mask != 0xFFFFFFFFu ||
            f.channel.mask != 0xFFFFFFFFu ||
            f.bank.mask != 0xFFFFFFFFu)
            return false;
        if (StackId{f.stack.value} != c.stack ||
            ChannelId{f.channel.value} != c.channel ||
            BankId{f.bank.value} != c.bank ||
            !f.row.matches(c.row.value()))
            return false;
        return trySpare(f, cycle);
    });
    std::erase_if(active_,
                  [&](const Fault &f) { return inSparedBank(f); });
}

bool
LiveRasDatapath::coordRemapped(const LineCoord &c) const
{
    if (brt_[c.stack.idx()]
            .lookup(unitId(c.channel, c.bank))
            .has_value())
        return true;
    return rrt_[c.stack.idx()]
        .lookup(unitId(c.channel, c.bank), c.row)
        .has_value();
}

bool
LiveRasDatapath::lineIsRemapped(LineAddr line) const
{
    if (line >= map_.parityBase())
        return false;
    return coordRemapped(map_.lineToCoord(line));
}

void
LiveRasDatapath::rebuildEngines()
{
    for (u32 s = 0; s < cfg_.geom.stacks; ++s) {
        stackFaults_.clear();
        for (const Fault &f : active_)
            if (f.stack.matches(s))
                stackFaults_.push_back(f);
        engines_[s]->rebuild(stackFaults_);
    }
}

void
LiveRasDatapath::differentialCheck(u64 cycle)
{
    // Both verdicts are functions of the active set alone (the engines
    // were just rebuilt from it), so they are recomputed only when the
    // set changed; their effects below apply on every check.
    if (!checked_.valid || checked_.faults != active_) {
        checked_.analyticUnc = analytic_.uncorrectable(active_);
        checked_.bitUnc = std::ranges::any_of(engines_, [&](const auto &e) {
            return !e->peelable(opts_.scheme.parityDims);
        });
        checked_.faults = active_;
        checked_.valid = true;
    }
    const bool analytic_unc = checked_.analyticUnc;
    const bool bit_unc = checked_.bitUnc;
    if (analytic_unc == bit_unc)
        return;
    if (analytic_unc && !bit_unc) {
        // The analytic evaluator peels whole fault ranges; the bit-true
        // engine peels line by line and can make partial progress
        // through one dimension before finishing in another. The
        // analytic verdict is therefore conservative — safe, and not a
        // modeling bug.
        ++log_.counters.analyticConservative;
        return;
    }
    // The dangerous direction: the Monte Carlo model claims the
    // pattern is correctable while the bit-true machine lost data.
    ++log_.counters.divergences;
    const std::string detail =
        "analytic=OK bit-true=UNC (" +
        std::to_string(active_.size()) + " faults)";
    logEvent({RasEventType::Divergence, cycle, LineAddr{}, 0, 0,
              FaultClass::Bit, detail});
    warn("live-ras: analytic/bit-true divergence at cycle %llu: %s",
         static_cast<unsigned long long>(cycle), detail.c_str());
}

void
LiveRasDatapath::appendGroupReads(std::vector<LineAddr> &out,
                                  const LineCoord &c, u32 dim) const
{
    // Sibling lines of the parity group the controller XORs to rebuild
    // the target. Lines on the ECC/metadata die are real DRAM reads
    // too, but live outside the system address space the timing model
    // knows, so only system-addressable lines are charged.
    const StackGeometry &g = cfg_.geom;
    const LineAddr line = map_.coordToLine(c);
    switch (dim) {
      case 1:
        for (u32 ch = 0; ch < g.channelsPerStack; ++ch)
            for (u32 b = 0; b < g.banksPerChannel; ++b) {
                const ChannelId cch{ch};
                const BankId cb{b};
                if (cch == c.channel && cb == c.bank)
                    continue;
                out.push_back(map_.coordToLine(
                    {c.stack, cch, cb, c.row, c.col}));
            }
        out.push_back(map_.d1ParityLine(line));
        break;
      case 2:
        for (u32 b = 0; b < g.banksPerChannel; ++b)
            for (u32 r = 0; r < g.rowsPerBank; ++r) {
                const BankId cb{b};
                const RowId cr{r};
                if (cb == c.bank && cr == c.row)
                    continue;
                out.push_back(map_.coordToLine(
                    {c.stack, c.channel, cb, cr, c.col}));
            }
        break;
      case 3:
        for (u32 ch = 0; ch < g.channelsPerStack; ++ch)
            for (u32 r = 0; r < g.rowsPerBank; ++r) {
                const ChannelId cch{ch};
                const RowId cr{r};
                if (cch == c.channel && cr == c.row)
                    continue;
                out.push_back(map_.coordToLine(
                    {c.stack, cch, c.bank, cr, c.col}));
            }
        if (c.bank == BankId{0}) {
            // Bank position 0's D3 group includes the parity store.
            for (u32 r = 0; r < g.rowsPerBank; ++r)
                out.push_back(map_.parityLineOf(
                    map_.d1GroupOf(c.stack, RowId{r}, c.col)));
        }
        break;
      default:
        break;
    }
}

DemandOutcome
LiveRasDatapath::onDemandRead(LineAddr line, u64 cycle)
{
    DemandOutcome out;
    ++log_.counters.demandReads;
    if (line >= map_.parityBase())
        return out; // parity traffic is covered by the writeback path

    const LineCoord c = map_.lineToCoord(line);
    if (ladder_.map().retired(c)) {
        // The sim already steered this access to a healthy stand-in
        // (MemorySystem routes through the RetirementMap); the retired
        // region's faults are out of both models, so the read is clean.
        ++log_.counters.offlinedReads;
        return out;
    }
    if (opts_.scheme.enableDds && coordRemapped(c)) {
        // RRT/BRT hit: the access is served by healthy spare storage.
        ++log_.counters.remappedReads;
        return out;
    }

    ParityEngine &eng = *engines_[c.stack.idx()];
    // The HBM channel/die identity: each channel's data lives on its
    // own die, so the engine's die coordinate is the named conversion
    // of the channel (the engine reserves die channelsPerStack for the
    // parity/metadata unit).
    const DieId die = dieOf(c.channel);
    if (!eng.lineCorruptAt(die, c.bank, c.row, c.col))
        return out;

    // CRC-32 mismatch: read-retry first (a transient bus glitch would
    // clear; a storage fault persists, Section V), then reconstruct.
    ++log_.counters.crcDetects;
    ++log_.counters.retries;
    out.extraReads.push_back(line);

    const ParityEngine::DemandFix fix = eng.correctLine(
        die, c.bank, c.row, c.col, opts_.scheme.parityDims);

    FaultClass cls = FaultClass::Bit;
    for (const Fault &f : active_)
        if (f.stack.matches(c.stack.value()) &&
            f.channel.matches(c.channel.value()) &&
            f.bank.matches(c.bank.value()) &&
            f.row.matches(c.row.value()) &&
            f.col.matches(c.col.value())) {
            cls = f.cls;
            break;
        }

    if (!fix.corrected) {
        // DUE: report once per line, poison, keep running. The ladder
        // offlines the page so the OS-analogue steers future traffic
        // off it instead of re-reporting forever.
        out.kind = DemandOutcome::Kind::Uncorrectable;
        ++log_.counters.dueReads;
        bool setChanged = false;
        if (poisoned_.insert(line)) {
            ++log_.counters.due;
            logEvent({RasEventType::UncorrectableError, cycle, line, 0,
                      fix.groupReads, cls, "line poisoned"});
            const DegradationLadder::Action act = ladder_.onDue(c);
            noteLadder(act, cycle, cls, "page offline after DUE");
            if (act.any()) {
                dropRetired(cycle);
                setChanged = true;
            }
        }
        rebuildEngines(); // undo partial peels; state stays canonical
        if (setChanged)
            differentialCheck(cycle);
        return out;
    }

    ++log_.counters.ce;
    log_.counters.parityGroupReads += fix.groupReads;
    log_.counters.linesReconstructed += fix.linesFixed;

    if (!eng.lineMatchesGolden(die, c.bank, c.row, c.col)) {
        // Correction passed CRC but the bytes are wrong: silent data
        // corruption. Must never happen; tests assert sdc == 0.
        ++log_.counters.sdc;
        logEvent({RasEventType::SilentCorruption, cycle, line,
                  fix.dimUsed, fix.groupReads, cls, ""});
    }

    out.kind = DemandOutcome::Kind::Corrected;
    logEvent({RasEventType::CorrectableError, cycle, line, fix.dimUsed,
              fix.groupReads, cls, ""});
    appendGroupReads(out.extraReads, c, fix.dimUsed);

    if (opts_.scheme.enableDds)
        spareCovering(c, cycle);

    // Restore the canonical state: spared faults are gone for good;
    // un-spared ones (transients before their scrub, budget-denied
    // permanents) re-corrupt their cells, as in DRAM.
    rebuildEngines();
    differentialCheck(cycle);
    return out;
}

void
LiveRasDatapath::fields(auto &io, auto &self)
{
    io.expect(kCheckpointMagic, "LiveRasDatapath: bad checkpoint magic");
    io.expect(kCheckpointVersion,
              "LiveRasDatapath: unsupported checkpoint version");
    io(self.active_, self.pending_, self.pendingMeta_);
    for (u32 s = 0; s < self.cfg_.geom.stacks; ++s)
        io(self.rrt_[s], self.brt_[s], self.spareRowCursor_[s]);
    io(self.tsvUsed_, self.tsvBroken_, self.rrtSpared_, self.brtSpared_,
       self.absorbedTsv_, self.poisoned_, self.lastScrub_, self.ladder_,
       self.meta_, self.log_.counters);
}

void
LiveRasDatapath::saveState(ByteSink &sink) const
{
    Writer out(sink);
    fields(out, *this);
}

void
LiveRasDatapath::loadState(ByteSource &src)
{
    Reader in(src);
    fields(in, *this);

    // Every stored fault must pass scheduleFault()'s or
    // scheduleMetaFault()'s rule: the per-stack tables are indexed by
    // its coordinates.
    const auto check = [&](const Fault &f, const char *field) {
        if (!onOneStack(f))
            fatal("LiveRasDatapath: checkpoint %s fault must name one "
                  "existing stack (%s)",
                  field, f.describe().c_str());
    };
    for (const Fault &f : active_)
        check(f, "active");
    for (const auto &[cyc, f] : pending_)
        check(f, "pending");
    for (const auto &[cyc, f] : pendingMeta_)
        checkMetaFault(f, "LiveRasDatapath: checkpoint pending meta fault");
    for (const auto &[k, f] : rrtSpared_)
        check(f, "rrtSpared");
    for (const auto &[k, st] : brtSpared_)
        for (const Fault &f : st.faults)
            check(f, "brtSpared");
    for (const auto &[k, faults] : absorbedTsv_)
        for (const Fault &f : faults)
            check(f, "absorbedTsv");

    // Engine state and the differential verdicts are derived (golden
    // XOR the active set), never stored: rebuild from what we loaded.
    checked_.valid = false;
    rebuildEngines();
}

u64
LiveRasDatapath::stateFingerprint() const
{
    ByteSink sink;
    saveState(sink);
    return fnv1a(sink.bytes());
}

} // namespace citadel
