#include "fleet/stack_server.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/rng.h"
#include "ecc/crc32.h"
#include "faults/injector.h"
#include "fleet/wire.h"
#include "sim/system_sim.h"
#include "sim/workload.h"

namespace citadel {
namespace fleet {

namespace {

/** Seed-mix salt for per-server streams; distinct from the soak and
 *  Monte Carlo mixes so a fleet server never replays either. */
constexpr u64 kServerSeedMix = 0xC2B2AE3D27D4EB4Full;

/** Device cycles one fleet tick advances the datapath by. */
constexpr u64 kCyclesPerTick = 512;

/** Benchmark profile driving the calibration slice. */
constexpr const char *kCalibrationBench = "mcf";

} // namespace

void
ServerConfig::validate() const
{
    if (queueCap == 0)
        fatal("ServerConfig: queueCap must be >= 1");
    if (defaultServiceUnits == 0)
        fatal("ServerConfig: defaultServiceUnits must be >= 1");
    if (!(std::isfinite(agingHours) && agingHours > 0.0))
        fatal("ServerConfig: agingHours must be positive and finite");
}

StackServer::StackServer(ServerIdx index, const ServerConfig &cfg,
                         u64 key_space, u64 seed, u64 campaign_ticks)
    : index_(index), cfg_(cfg), serviceUnits_(cfg.defaultServiceUnits)
{
    cfg_.validate();
    if (key_space == 0)
        fatal("StackServer: key space must be >= 1");
    inbox_.resize(cfg_.queueCap);
    kv_.assign(key_space, kAbsent);
    LiveRasOptions opts = cfg_.ras;
    opts.seed = seed ^ (kServerSeedMix * (index + 1));
    dp_ = std::make_unique<LiveRasDatapath>(cfg_.sim, opts);
    calibrate(opts.seed);
    scheduleAging(opts.seed, campaign_ticks);
    lastCycle_ = baseCycle_;
}

StackServer::~StackServer() = default;

void
StackServer::calibrate(u64 seed)
{
    if (cfg_.calibrationInsns == 0)
        return;
    // A short timing-simulator slice with this server's datapath
    // attached: real demand traffic against the real device shard.
    SimConfig sim = cfg_.sim;
    sim.insnsPerCore = cfg_.calibrationInsns;
    sim.seed = mix64(seed ^ 0xCA11B8A7Eull);
    SystemSim slice(sim, findBenchmark(kCalibrationBench));
    slice.attachRas(dp_.get());
    const SimResult r = slice.run();
    baseCycle_ = r.cycles;
    const u64 reads = std::max<u64>(1, dp_->counters().demandReads);
    const double cycles_per_read =
        static_cast<double>(r.cycles) / static_cast<double>(reads);
    const double rate = static_cast<double>(kCyclesPerTick) /
                        std::max(1.0, cycles_per_read);
    serviceUnits_ = static_cast<u32>(
        std::clamp(rate, 1.0, 65536.0));
}

void
StackServer::scheduleAging(u64 seed, u64 campaign_ticks)
{
    SystemConfig fcfg = cfg_.faults;
    fcfg.geom = cfg_.sim.geom;
    fcfg.lifetimeHours = cfg_.agingHours;
    fcfg.subArrayRows =
        std::min<u32>(fcfg.subArrayRows, cfg_.sim.geom.rowsPerBank);
    fcfg.validate();
    const FaultInjector injector(fcfg);

    // Counter-derived per-server stream: server i always ages the same
    // way regardless of fleet size or thread count.
    Rng rng(seed ^ 0xA6E5ull);
    const double hours = cfg_.agingHours;
    const u64 span = campaign_ticks * kCyclesPerTick;
    const auto cycle_at = [&](double t_hours) {
        return baseCycle_ +
               static_cast<u64>(t_hours / hours *
                                static_cast<double>(span));
    };
    for (const Fault &f : injector.sampleLifetime(rng))
        dp_->scheduleFault(f, cycle_at(f.timeHours));
    for (const MetaFault &f :
         injector.sampleMetaLifetime(rng, dp_->metaGeometry()))
        dp_->scheduleMetaFault(f, cycle_at(f.timeHours));
}

LineAddr
StackServer::lineFor(u64 key) const
{
    return LineAddr{mix64(key * 0x2545F4914F6CDD1Dull ^ index_) %
                    cfg_.sim.geom.totalLines()};
}

u64
StackServer::cycleOf(u64 tick) const
{
    return baseCycle_ + (tick + 1) * kCyclesPerTick;
}

bool
StackServer::enqueue(const Request &r)
{
    if (!serving())
        return false;
    if (inboxCount_ >= cfg_.queueCap) {
        ++stats_.rejected;
        return false;
    }
    inbox_[(inboxHead_ + inboxCount_) % cfg_.queueCap] = r;
    ++inboxCount_;
    return true;
}

void
StackServer::setState(ServerState to)
{
    if (to == state_)
        return;
    if (!serverTransitionAllowed(state_, to))
        fatal("StackServer %u: illegal state transition %s -> %s",
              index_, serverStateName(state_), serverStateName(to));
    state_ = to;
}

void
StackServer::crash()
{
    setState(ServerState::Crashed);
    inboxHead_ = 0;
    inboxCount_ = 0;
    outbox_.clear();
}

void
StackServer::stall(u64 until_tick)
{
    if (!serving())
        return;
    setState(ServerState::Stalled);
    stalledUntil_ = until_tick;
}

void
StackServer::slowdown(u64 until_tick, u32 divisor)
{
    if (state_ != ServerState::Up)
        return;
    setState(ServerState::Slowed);
    slowedUntil_ = until_tick;
    slowDivisor_ = std::max(1u, divisor);
}

void
StackServer::fence()
{
    if (state_ == ServerState::Crashed)
        return;
    setState(ServerState::Fenced);
    inboxHead_ = 0;
    inboxCount_ = 0;
    stalledUntil_ = 0;
    slowedUntil_ = 0;
    slowDivisor_ = 1;
}

void
StackServer::restart()
{
    setState(ServerState::Fenced);
    // The process is back but its DRAM contents are not: every replica
    // this server held is gone, which is exactly why admission
    // requires a warm fill. Cumulative service stats survive (they are
    // campaign accounting, not server memory).
    kv_.assign(kv_.size(), kAbsent);
    inboxHead_ = 0;
    inboxCount_ = 0;
    outbox_.clear();
    stalledUntil_ = 0;
    slowedUntil_ = 0;
    slowDivisor_ = 1;
}

void
StackServer::beginWarming()
{
    setState(ServerState::Warming);
    warmCrc_ = Crc32::begin();
}

u32
StackServer::warmFrame(std::span<const u8> frame)
{
    if (state_ != ServerState::Warming)
        fatal("StackServer %u: warmFrame outside Warming (%s)", index_,
              serverStateName(state_));
    FrameView view;
    const DecodeStatus st = decodeFrame(frame, view);
    if (st != DecodeStatus::Ok)
        fatal("StackServer %u: warm frame rejected: %s", index_,
              decodeStatusName(st));
    if (view.kind() != FrameKind::RequestBatch)
        fatal("StackServer %u: warm frame is not a request batch",
              index_);
    for (u32 i = 0; i < view.count(); ++i) {
        const Request r = view.requestAt(i);
        if (r.kind != OpKind::Write)
            fatal("StackServer %u: non-write record in warm frame",
                  index_);
        storeLocal(r.key, r.version, r.value);
        warmCrc_ = Crc32::update(warmCrc_, r.key);
        warmCrc_ = Crc32::update(warmCrc_, r.version);
        warmCrc_ = Crc32::update(warmCrc_, r.value);
    }
    return view.count();
}

void
StackServer::admit(u32 expectedCrc)
{
    if (state_ != ServerState::Warming)
        fatal("StackServer %u: admit outside Warming (%s)", index_,
              serverStateName(state_));
    if (warmCrc_ != expectedCrc)
        fatal("StackServer %u: warm handshake CRC mismatch "
              "(server %08x, coordinator %08x)",
              index_, warmCrc_, expectedCrc);
    setState(ServerState::Up);
}

void
StackServer::abortWarming()
{
    setState(ServerState::Fenced);
}

void
StackServer::applyReplica(u64 key, u64 version, u64 value)
{
    storeLocal(key, version, value);
}

void
StackServer::storeLocal(u64 key, u64 version, u64 value)
{
    if (version == 0)
        return; // Version 0 encodes "absent": nothing to merge.
    if (key >= kv_.size())
        fatal("StackServer: key %llu outside the declared key space "
              "(%zu)",
              static_cast<unsigned long long>(key), kv_.size());
    auto &entry = kv_[key];
    if (version > entry.first)
        entry = {version, value};
}

bool
StackServer::respondsToProbe(u64 tick) const
{
    if (!serving())
        return false;
    return state_ != ServerState::Stalled || tick >= stalledUntil_;
}

u64
StackServer::kvCount() const
{
    return static_cast<u64>(kv_.size() -
                            static_cast<std::size_t>(
                                std::count(kv_.begin(), kv_.end(), kAbsent)));
}

std::pair<u64, u64>
StackServer::lookup(u64 key) const
{
    return lookupLocal(key);
}

std::pair<u64, u64>
StackServer::lookupLocal(u64 key) const
{
    if (key >= kv_.size())
        fatal("StackServer: key %llu outside the declared key space "
              "(%zu)",
              static_cast<unsigned long long>(key), kv_.size());
    return kv_[key];
}

bool
StackServer::kvScan(bool have, u64 from, u64 &key, u64 &version,
                    u64 &value) const
{
    for (u64 k = have ? from + 1 : 0; k < kv_.size(); ++k) {
        if (kv_[k].first != 0) {
            key = k;
            version = kv_[k].first;
            value = kv_[k].second;
            return true;
        }
    }
    return false;
}

RasHealthSignals
StackServer::health() const
{
    return dp_->healthSignals();
}

Response
StackServer::serve(const Request &r, u64 cycle)
{
    Response resp;
    resp.op = r.op;
    resp.attempt = r.attempt;
    resp.replica = r.replica;
    resp.from = index_;

    const DemandOutcome outcome = dp_->onDemandRead(lineFor(r.key), cycle);
    stats_.unitsSpent += 1 + outcome.extraReads.size();
    if (outcome.kind == DemandOutcome::Kind::Corrected)
        ++stats_.corrected;

    if (outcome.kind == DemandOutcome::Kind::Uncorrectable) {
        // The device lost the key's line: this replica cannot durably
        // serve or store it. Never acknowledge onto a poisoned line.
        ++stats_.dueReads;
        resp.status = Status::DueData;
        return resp;
    }

    if (r.kind == OpKind::Write) {
        storeLocal(r.key, r.version, r.value);
        resp.status = Status::Ok;
        resp.version = r.version;
        resp.value = r.value;
        return resp;
    }
    const auto [version, value] = lookupLocal(r.key);
    if (version == 0) {
        resp.status = Status::NotFound;
        return resp;
    }
    resp.status = Status::Ok;
    resp.version = version;
    resp.value = value;
    return resp;
}

void
StackServer::step(u64 tick)
{
    outbox_.clear();
    if (!serving())
        return;
    if (state_ == ServerState::Stalled) {
        if (tick < stalledUntil_)
            return; // Frozen: no datapath time, no service.
        // A stall can land on a Slowed server (stall() accepts any
        // serving state). When it lifts, restore the slowdown if its
        // window is still open; otherwise clear the divisor too —
        // going straight to Up would leave slowDivisor_ > 1 with no
        // Slowed-expiry path left to reset it, permanently shrinking
        // this server's service budget.
        if (tick < slowedUntil_ && slowDivisor_ > 1) {
            setState(ServerState::Slowed);
        } else {
            setState(ServerState::Up);
            slowDivisor_ = 1;
        }
    }
    if (state_ == ServerState::Slowed && tick >= slowedUntil_) {
        setState(ServerState::Up);
        slowDivisor_ = 1;
    }

    const u64 cycle = std::max(cycleOf(tick), lastCycle_);
    lastCycle_ = cycle;
    dp_->tick(cycle);

    u64 budget = std::max<u32>(1, serviceUnits_ / slowDivisor_);
    while (budget > 0 && inboxCount_ > 0) {
        const Request r = inbox_[inboxHead_];
        inboxHead_ = (inboxHead_ + 1) % cfg_.queueCap;
        --inboxCount_;
        const u64 before = stats_.unitsSpent;
        outbox_.push_back(serve(r, cycle));
        ++stats_.served;
        const u64 cost = stats_.unitsSpent - before;
        budget -= std::min(budget, cost);
    }
}

template <class Server>
void
StackServer::SavedInbox<Server>::saveState(ByteSink &sink) const
{
    Writer out(sink);
    out(server.inboxCount_);
    for (u32 i = 0; i < server.inboxCount_; ++i)
        out(server.inbox_[(server.inboxHead_ + i) % server.cfg_.queueCap]);
}

template <class Server>
void
StackServer::SavedInbox<Server>::loadState(ByteSource &src)
{
    Reader in(src);
    server.inboxHead_ = 0;
    in(server.inboxCount_);
    if (server.inboxCount_ > server.cfg_.queueCap)
        fatal("StackServer::loadState: inbox count %u > queueCap %u",
              server.inboxCount_, server.cfg_.queueCap);
    for (u32 i = 0; i < server.inboxCount_; ++i)
        in(server.inbox_[i]);
}

void
StackServer::fields(auto &io, auto &self)
{
    SavedInbox inbox{self};
    // A checkpoint restores the state byte directly, bypassing the
    // transition table: it restores a state, it does not take an edge.
    io.enumByte(self.state_, ServerState::Warming,
                "StackServer::loadState: corrupt checkpoint: state byte "
                "%u is not a server state");
    io(self.stalledUntil_, self.slowedUntil_, self.slowDivisor_,
       self.lastCycle_, self.warmCrc_, self.stats_, inbox, self.outbox_);
    io.keyTable(self.kv_, kAbsent,
                "StackServer::loadState: corrupt checkpoint: kv");
    io(self.dp_);
}

void
StackServer::serialize(ByteSink &sink) const
{
    Writer out(sink);
    out(static_cast<u8>(state_), stats_);
    out.keyTable(kv_, kAbsent, "kv");
    // Crashed devices are unreachable; their state is not part of the
    // surviving-service fingerprint.
    out(state_ == ServerState::Crashed ? u64{0}
                                       : dp_->stateFingerprint());
}

void
StackServer::saveState(ByteSink &sink) const
{
    Writer out(sink);
    fields(out, *this);
}

void
StackServer::loadState(ByteSource &src)
{
    Reader in(src);
    fields(in, *this);
    // Version 0 means absent, so a stored entry never pairs it with a
    // value.
    for (u64 key = 0; key < kv_.size(); ++key)
        if (kv_[key].first == 0 && kv_[key].second != 0)
            fatal("StackServer::loadState: corrupt checkpoint: kv key "
                  "%llu has version 0",
                  static_cast<unsigned long long>(key));
}

} // namespace fleet
} // namespace citadel
