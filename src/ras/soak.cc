#include "ras/soak.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/log.h"
#include "common/thread_pool.h"

namespace citadel {

namespace {

/** Per-shard seed derivation; a distinct mix from the Monte Carlo
 *  engine's so a soak shard never replays a Monte Carlo trial. */
constexpr u64 kSoakSeedMix = 0xD1B54A32D192ED03ull;

constexpr u32 kSoakMagic = 0x43534F4Bu; // "CSOK"
constexpr u32 kSoakVersion = 1;

/** Field-wise counter sum (RasCounters is a plain bag of u64s, but
 *  keep the order explicit so a new field cannot be silently missed
 *  in checkpointed totals). */
void
addCounters(RasCounters &acc, const RasCounters &c)
{
    acc.faultsInjected += c.faultsInjected;
    acc.faultsAbsorbed += c.faultsAbsorbed;
    acc.demandReads += c.demandReads;
    acc.remappedReads += c.remappedReads;
    acc.crcDetects += c.crcDetects;
    acc.retries += c.retries;
    acc.ce += c.ce;
    acc.due += c.due;
    acc.dueReads += c.dueReads;
    acc.sdc += c.sdc;
    acc.parityGroupReads += c.parityGroupReads;
    acc.linesReconstructed += c.linesReconstructed;
    acc.rowsSpared += c.rowsSpared;
    acc.banksSpared += c.banksSpared;
    acc.sparingDenied += c.sparingDenied;
    acc.tsvRepairs += c.tsvRepairs;
    acc.pagesOfflined += c.pagesOfflined;
    acc.banksRetired += c.banksRetired;
    acc.channelsDegraded += c.channelsDegraded;
    acc.retiredAbsorbed += c.retiredAbsorbed;
    acc.offlinedReads += c.offlinedReads;
    acc.metaFaultsInjected += c.metaFaultsInjected;
    acc.metaCorrected += c.metaCorrected;
    acc.metaMirrorRestored += c.metaMirrorRestored;
    acc.metaRecordsLost += c.metaRecordsLost;
    acc.metaScrubRetries += c.metaScrubRetries;
    acc.metaBackoffCycles += c.metaBackoffCycles;
    acc.parityCacheRefetches += c.parityCacheRefetches;
    acc.faultsReactivated += c.faultsReactivated;
    acc.divergences += c.divergences;
    acc.analyticConservative += c.analyticConservative;
}

} // namespace

void
SoakConfig::validate() const
{
    if (shards == 0)
        fatal("SoakConfig: shards must be >= 1");
    if (!(years > 0.0))
        fatal("SoakConfig: years must be positive");
    if (cyclesPerHour == 0)
        fatal("SoakConfig: cyclesPerHour must be >= 1");
    if (probesPerEpoch == 0)
        fatal("SoakConfig: probesPerEpoch must be >= 1");
}

std::string
SoakResult::summary() const
{
    std::ostringstream os;
    os << shards << " shards x " << years << "y ("
       << hoursSimulated << "h simulated) | " << totals.summary()
       << " | retiredLines=" << retiredLines
       << " minCapacity=" << minCapacityFraction
       << " fingerprint=0x" << std::hex << fingerprint;
    return os.str();
}

SoakCampaign::SoakCampaign(const SoakConfig &cfg)
    : cfg_(cfg), lifetimeHours_(cfg.years * kHoursPerYear)
{
    cfg_.validate();

    // Derive the in-run scrub cadence from the configured scrub
    // interval unless the caller pinned it.
    if (cfg_.ras.scrubCycles == 0) {
        const double scrub_h = std::max(cfg_.faults.scrubHours, 1e-6);
        const double per_hour = static_cast<double>(cfg_.cyclesPerHour);
        cfg_.ras.scrubCycles =
            std::max<u64>(1, static_cast<u64>(scrub_h * per_hour));
    }
    probeEvery_ = std::max<u64>(1, cfg_.ras.scrubCycles /
                                       cfg_.probesPerEpoch);

    // The injector samples over this campaign's geometry and horizon.
    SystemConfig fcfg = cfg_.faults;
    fcfg.geom = cfg_.sim.geom;
    fcfg.lifetimeHours = lifetimeHours_;
    fcfg.subArrayRows = std::min<u32>(fcfg.subArrayRows,
                                      cfg_.sim.geom.rowsPerBank);
    fcfg.validate();
    const FaultInjector injector(fcfg);

    shards_.resize(cfg_.shards);
    for (u32 s = 0; s < cfg_.shards; ++s) {
        LiveRasOptions opts = cfg_.ras;
        opts.seed = cfg_.seed ^ (kSoakSeedMix * (s + 1)) ^ 0x5EEDull;
        shards_[s].dp =
            std::make_unique<LiveRasDatapath>(cfg_.sim, opts);

        // Counter-derived shard seed: shard s always replays the same
        // lifetime no matter how many shards or threads run.
        Rng rng(cfg_.seed ^ (kSoakSeedMix * (s + 1)));
        for (const Fault &f : injector.sampleLifetime(rng))
            shards_[s].dp->scheduleFault(f, cycleOf(f.timeHours));
        for (const MetaFault &f : injector.sampleMetaLifetime(
                 rng, shards_[s].dp->metaGeometry()))
            shards_[s].dp->scheduleMetaFault(f, cycleOf(f.timeHours));
    }
}

SoakCampaign::~SoakCampaign() = default;

u64
SoakCampaign::cycleOf(double hours) const
{
    return static_cast<u64>(hours *
                            static_cast<double>(cfg_.cyclesPerHour));
}

LineAddr
SoakCampaign::probeLine(u32 shard, u64 probe_index) const
{
    const u64 h = mix64((static_cast<u64>(shard) << 40) ^ probe_index ^
                        cfg_.seed);
    return LineAddr{h % cfg_.sim.geom.totalLines()};
}

void
SoakCampaign::stepShard(u32 index, u64 end_cycle)
{
    Shard &sh = shards_[index];
    LiveRasDatapath &dp = *sh.dp;
    u64 cycle = sh.cycle;
    while (cycle < end_cycle) {
        // Next stop: probe boundary, datapath event (fault arrival or
        // scrub), or the campaign horizon -- whichever comes first.
        const u64 next_probe =
            (cycle / probeEvery_ + 1) * probeEvery_;
        u64 next = std::min(next_probe, end_cycle);
        next = std::min(next, dp.nextEventCycle(cycle + 1));
        dp.tick(next);
        if (next == next_probe)
            dp.onDemandRead(probeLine(index, next / probeEvery_), next);
        cycle = next;
    }
    sh.cycle = end_cycle;
}

void
SoakCampaign::advanceTo(double hours)
{
    const double target = std::min(hours, lifetimeHours_);
    if (target <= hoursDone_)
        return;
    const u64 end_cycle = cycleOf(target);

    // TSA audit (DESIGN.md section 13): no CITADEL_GUARDED_BY fields
    // here by design. parallelFor partitions [0, shards) so each index
    // is visited exactly once per advance, stepShard(s) touches only
    // shards_[s], and hoursDone_ is written after the pool's joining
    // barrier. Result folds and checkpoints run strictly before or
    // after an advance, never during one.
    ThreadPool pool(cfg_.threads);
    pool.parallelFor(cfg_.shards, 1,
                     [&](u64 begin, u64 end, unsigned /*worker*/) {
                         for (u64 s = begin; s < end; ++s)
                             stepShard(static_cast<u32>(s), end_cycle);
                     });
    hoursDone_ = target;
}

const LiveRasDatapath &
SoakCampaign::shard(u32 index) const
{
    if (index >= shards_.size())
        fatal("SoakCampaign: shard %u out of range", index);
    return *shards_[index].dp;
}

SoakResult
SoakCampaign::result() const
{
    SoakResult res;
    res.shards = cfg_.shards;
    res.years = cfg_.years;
    res.hoursSimulated = hoursDone_ * cfg_.shards;
    res.fingerprint = 0xCBF29CE484222325ull;
    for (const Shard &sh : shards_) {
        addCounters(res.totals, sh.dp->counters());
        res.retiredLines += sh.dp->ladder().map().retiredLines();
        res.minCapacityFraction =
            std::min(res.minCapacityFraction,
                     sh.dp->ladder().map().capacityFraction());
        // Shard-order fold: any reordering or state drift moves it.
        const u64 fp = sh.dp->stateFingerprint();
        u8 bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<u8>(fp >> (8 * i));
        res.fingerprint = fnv1a(bytes, 8, res.fingerprint);
    }
    return res;
}

void
SoakCampaign::fields(auto &io, auto &self)
{
    io.expect(kSoakMagic, "SoakCampaign: bad checkpoint magic");
    io.expect(kSoakVersion, "SoakCampaign: unsupported checkpoint version");
    io.expect(self.cfg_.shards,
              "SoakCampaign: checkpoint shard count mismatch");
    io(self.hoursDone_);
    io.fixed(self.shards_);
}

void
SoakCampaign::save(ByteSink &sink) const
{
    Writer out(sink);
    fields(out, *this);
}

void
SoakCampaign::load(ByteSource &src)
{
    Reader in(src);
    fields(in, *this);
}

} // namespace citadel
