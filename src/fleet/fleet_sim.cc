#include "fleet/fleet_sim.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "common/rng.h"
#include "faults/fit_rates.h"
#include "stack/geometry.h"

namespace citadel {
namespace fleet {

namespace {

/** Unit double in [0, 1) from the top 53 bits of a counter hash. */
double
unit(u64 h)
{
    return static_cast<double>(h >> 11) * 0x1p-53;
}

/** Counter-hash coin. */
bool
coin(u64 h, double p)
{
    return unit(h) < p;
}

/**
 * Client sizing: operation ids are dense, an op lives at most
 * opDeadline+1 ticks (the deadline wakeup completes it), so the live
 * id span is bounded by the peak arrival rate times the op lifetime.
 */
ClientTuning
clientTuning(const FleetConfig &cfg, const TrafficModel &traffic)
{
    u64 maxRate = cfg.arrivalsPerTick;
    if (traffic.active()) {
        maxRate = 0;
        for (const TrafficPhase &phase : traffic.phases())
            maxRate = std::max<u64>(
                maxRate, u64(phase.rate) * phase.burstMult);
    }
    ClientTuning t;
    t.opWindow = maxRate * (cfg.retry.opDeadline + 4) + 8;
    t.keySpace = cfg.keySpace;
    return t;
}

/** Validate `cfg` and parse its trace spec (empty: an inactive
 *  model): the campaign's one parse of it. */
TrafficModel
validatedTraffic(const FleetConfig &cfg)
{
    cfg.validate();
    TrafficModel model;
    std::string err;
    if (!cfg.traffic.empty() &&
        !TrafficModel::parse(cfg.traffic, model, &err))
        fatal("FleetConfig: traffic spec: %s", err.c_str());
    return model;
}

/** `cfg` with a trace's total length in place of `ticks`. */
FleetConfig
normalized(const FleetConfig &cfg, const TrafficModel &traffic)
{
    FleetConfig out = cfg;
    if (traffic.active())
        out.ticks = traffic.totalTicks();
    return out;
}

/**
 * Fold every config field that shapes campaign state into `sink`: the
 * checkpoint guard's config half. threads is left out on purpose: the
 * fingerprint grid proves it neutral, so a checkpoint may resume under
 * any thread count. The nested device configs (sim, ras, faults) are
 * not covered.
 */
void
digestConfig(const FleetConfig &cfg, ByteSink &sink)
{
    sink.putU32(cfg.servers);
    sink.putU64(cfg.ticks);
    sink.putU64(cfg.users);
    sink.putU64(cfg.keySpace);
    sink.putU32(cfg.arrivalsPerTick);
    sink.putDouble(cfg.writeFraction);
    sink.putU64(cfg.traffic.size());
    for (const char ch : cfg.traffic)
        sink.putU8(static_cast<u8>(ch));
    sink.putU32(cfg.replication);
    sink.putU32(cfg.ackQuorum);
    sink.putU64(cfg.seed);

    const RetryPolicy &r = cfg.retry;
    sink.putU64(r.attemptTimeout);
    sink.putU64(r.opDeadline);
    sink.putU32(r.maxAttempts);
    sink.putU64(r.hedgeAfter);
    sink.putU64(r.seed);

    const CoordinatorOptions &c = cfg.coord;
    sink.putU64(c.healthEvery);
    sink.putU32(c.failThreshold);
    sink.putBool(c.rebalanceEnabled);

    // Chaos event counts and windows reach the guard through the
    // schedule; the per-request drop odds do not.
    sink.putBool(cfg.chaos.enabled);
    sink.putDouble(cfg.chaos.dropProb);

    const ServerConfig &sv = cfg.server;
    sink.putDouble(sv.agingHours);
    sink.putU32(sv.queueCap);
    sink.putU64(sv.calibrationInsns);
    sink.putU32(sv.defaultServiceUnits);
}

/**
 * Nest a serial-phase member (client, coordinator, server) in the
 * campaign's field list. The generic codecs cannot carry the role its
 * saveState/loadState require, so the list, which holds the role,
 * nests it through these instead.
 */
template <class T>
void
nestSerial(Writer &out, const T &v) CITADEL_REQUIRES(kSerialPhase)
{
    v.saveState(out.sink());
}

template <class T>
void
nestSerial(Reader &in, T &v) CITADEL_REQUIRES(kSerialPhase)
{
    v.loadState(in.source());
}

} // namespace

void
FleetConfig::validate() const
{
    if (servers < 2 || servers > 64)
        fatal("FleetConfig: servers must be in [2, 64] (the write-ack "
              "bitmask is 64 bits wide)");
    if (ticks == 0)
        fatal("FleetConfig: ticks must be >= 1");
    if (users == 0 || keySpace == 0)
        fatal("FleetConfig: users and keySpace must be >= 1");
    if (arrivalsPerTick == 0)
        fatal("FleetConfig: arrivalsPerTick must be >= 1");
    if (!(0.0 <= writeFraction && writeFraction <= 1.0))
        fatal("FleetConfig: writeFraction must be in [0, 1]");
    if (replication == 0 || replication > 8)
        fatal("FleetConfig: replication must be in [1, 8]");
    if (replication > servers)
        fatal("FleetConfig: replication exceeds the server count");
    if (ackQuorum == 0 || ackQuorum > replication)
        fatal("FleetConfig: ackQuorum must be in [1, replication]");
    retry.validate();
    coord.validate();
    chaos.validate();
    server.validate();
}

FleetConfig
FleetConfig::demo()
{
    FleetConfig cfg;
    cfg.server.sim.geom = StackGeometry::tiny();
    cfg.server.sim.cores = 2;

    // Boosted fault rates, same rationale as the soak driver: at
    // nominal FIT a short campaign would see nothing. The fleet
    // campaign exercises mechanisms; it is not a reliability estimate.
    cfg.server.faults.rates = FitTable::paper8Gb().scaledBy(2000.0);
    cfg.server.faults.tsvDeviceFit = 1430.0;
    cfg.server.faults.metaFit = 100000.0;
    cfg.server.agingHours = 2000.0;
    return cfg;
}

std::string
FleetResult::summary() const
{
    std::ostringstream os;
    os << totals.summary() << "\n";
    os << "fleet: " << liveServers << "/" << servers.size()
       << " servers in service | audit: " << auditedWrites
       << " acked writes, " << lostAckedWrites << " lost, "
       << corruptAckedWrites << " corrupt | divergences " << divergences
       << " | latency p50/p99 " << p50LatencyTicks << "/"
       << p99LatencyTicks << " ticks | fingerprint " << std::hex
       << fingerprint << std::dec;
    return os.str();
}

FleetCampaign::FleetCampaign(const FleetConfig &cfg)
    : FleetCampaign(cfg, validatedTraffic(cfg))
{
}

FleetCampaign::FleetCampaign(const FleetConfig &cfg, TrafficModel traffic)
    : cfg_(normalized(cfg, traffic)),
      injector_(cfg_.chaos, cfg_.servers, cfg_.ticks, cfg_.seed),
      client_(cfg_.retry, cfg_.replication, cfg_.ackQuorum,
              mix64(cfg_.seed ^ 0x5A17ull), clientTuning(cfg_, traffic)),
      traffic_(std::move(traffic)),
      transport_(cfg_.servers),
      reqFrames_(cfg_.servers),
      seqScratch_(cfg_.servers)
{
    fleet_.reserve(cfg_.servers);
    for (u32 s = 0; s < cfg_.servers; ++s)
        fleet_.push_back(std::make_unique<StackServer>(
            s, cfg_.server, cfg_.keySpace, cfg_.seed, cfg_.ticks));
    coordinator_ = std::make_unique<Coordinator>(
        cfg_.coord, cfg_.replication, mix64(cfg_.seed ^ 0x419Cull),
        cfg_.keySpace, fleet_);
    pool_ = std::make_unique<ThreadPool>(cfg_.threads);
    if (traffic_.active())
        traffic_.prepare(cfg_.keySpace);
    // The analysis cannot propagate capabilities through the
    // type-erased std::function boundary, so each callback restates
    // its contract: it is only ever invoked from the client, which is
    // serial-phase-only.
    client_.connect(
        [this](u64 key, std::vector<ServerIdx> &out) {
            assertRoleHeld(kSerialPhase);
            coordinator_->placement(key, out);
        },
        [this](const Request &r, ServerIdx s) {
            assertRoleHeld(kSerialPhase);
            sendToServer(r, s);
        });
}

FleetCampaign::~FleetCampaign() = default;

void
FleetCampaign::injectChaosEvent(const ChaosEvent &ev)
{
    if (finished_ || tick_ > 0)
        fatal("FleetCampaign: injectChaosEvent after the campaign "
              "started");
    if (ev.server >= cfg_.servers)
        fatal("FleetCampaign: chaos event targets server %u of %u",
              ev.server, cfg_.servers);
    injector_.addEvent(ev);
}

void
FleetCampaign::sendToServer(const Request &r, ServerIdx s)
{
    if (s >= fleet_.size())
        fatal("FleetCampaign: send to unknown server %u", s);
    // Load accounting sees every routed request, including ones the
    // chaos network then eats: load is what the client *sends*, so it
    // is identical across chaos outcomes.
    coordinator_->noteLoad(s, r.key);
    if (injector_.dropRequest(r.op, r.attempt, s)) {
        ++loopCounters_.requestsDropped;
        return;
    }
    u32 copies = 1;
    if (injector_.duplicateRequest(r.op, r.attempt, s)) {
        ++loopCounters_.requestsDuplicated;
        copies = 2;
    }
    // Append to the server's open request frame and remember the
    // record's global send sequence (frames keep send order, so the
    // server's i-th decoded record is its i-th send). A full frame
    // ships at once; flushFrames ships the partial ones after
    // arrivals.
    FrameWriter &frame = reqFrames_[s];
    for (u32 i = 0; i < copies; ++i) {
        if (!frame.open())
            frame.beginRequestFrame();
        frame.add(r);
        seqScratch_[s].push_back(seqNext_++);
        if (frame.count() == kFrameRecords)
            transport_.sendToServer(s, frame.finish());
    }
}

void
FleetCampaign::flushFrames()
{
    // Ship every server's partial request frame; the full ones left
    // as they filled.
    for (u32 s = 0; s < cfg_.servers; ++s)
        if (reqFrames_[s].open())
            transport_.sendToServer(s, reqFrames_[s].finish());
    seqNext_ = 0;
    // Deliver into the server inboxes. A crashed server stays silent
    // (the attempt timeout covers it); a fenced or full one answers
    // Busy. Busy rejections are synthesized here and never travel on
    // the wire. Invariant: the client sees each tick's Busy responses
    // in global send order, not grouped by server, and all of them
    // before this tick's server responses. Server-grouped order would
    // be deterministic too, but it reorders the client's backoff
    // wakeups and so changes the campaign (the overload fingerprint
    // test pins this order).
    busyScratch_.clear();
    for (u32 s = 0; s < cfg_.servers; ++s) {
        RxStream &rx = transport_.serverRx(s);
        std::size_t recordIdx = 0;
        while (!rx.pending().empty()) {
            FrameView view;
            std::size_t consumed = 0;
            const DecodeStatus st =
                decodeFrame(rx.pending(), view, &consumed);
            if (st != DecodeStatus::Ok)
                fatal("FleetCampaign: request frame for server %u "
                      "failed to decode: %s",
                      s, decodeStatusName(st));
            if (view.kind() != FrameKind::RequestBatch)
                fatal("FleetCampaign: response frame on the server rx "
                      "path");
            StackServer &srv = *fleet_[s];
            for (u32 i = 0; i < view.count(); ++i, ++recordIdx) {
                const Request r = view.requestAt(i);
                if (!srv.dataReadable())
                    continue; // Crashed: the attempt timeout covers it.
                if (srv.enqueue(r))
                    continue;
                Response resp;
                resp.op = r.op;
                resp.attempt = r.attempt;
                resp.replica = r.replica;
                resp.status = Status::Busy;
                resp.from = s;
                busyScratch_.emplace_back(seqScratch_[s][recordIdx],
                                          resp);
            }
            rx.consume(consumed);
        }
        if (recordIdx != seqScratch_[s].size())
            panic("FleetCampaign: server %u decoded %zu records but "
                  "%zu were framed",
                  s, recordIdx, seqScratch_[s].size());
        seqScratch_[s].clear();
        rx.compact();
    }
    std::sort(busyScratch_.begin(), busyScratch_.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (const auto &[seq, resp] : busyScratch_)
        responses_.push_back(resp);
}

void
FleetCampaign::applyChaos(u64 tick, FleetCounters &c)
{
    const auto &sched = injector_.schedule();
    while (nextEvent_ < sched.size() && sched[nextEvent_].tick <= tick) {
        const ChaosEvent &ev = sched[nextEvent_++];
        StackServer &srv = *fleet_[ev.server];
        switch (ev.kind) {
        case ChaosEvent::Kind::Crash:
            if (srv.state() != ServerState::Crashed) {
                srv.crash();
                ++c.serverCrashes;
            }
            break;
        case ChaosEvent::Kind::Stall:
            if (srv.serving()) {
                srv.stall(tick + ev.duration);
                ++c.serverStalls;
            }
            break;
        case ChaosEvent::Kind::Slow:
            if (srv.state() == ServerState::Up) {
                srv.slowdown(tick + ev.duration, ev.factor);
                ++c.serverSlowdowns;
            }
            break;
        case ChaosEvent::Kind::Restart:
            // The process is back: a crashed server restarts (empty
            // DRAM, Fenced), and any fenced server asks the
            // coordinator to rejoin — the warm pump takes it from
            // there. A server that is serving or already warming
            // ignores the event.
            if (srv.state() == ServerState::Crashed)
                srv.restart();
            if (srv.state() == ServerState::Fenced)
                coordinator_->requestJoin(ev.server, tick, c);
            break;
        }
    }
}

void
FleetCampaign::deliverDue(u64 tick)
{
    // Everything in responses_ was produced last tick. onResponse
    // never produces a response (retries go to the open frames), so the
    // vector is stable during the loop.
    for (const Response &r : responses_)
        client_.onResponse(r, tick);
    responses_.clear();
}

void
FleetCampaign::arrivals(u64 tick)
{
    if (traffic_.active()) {
        // Trace replay: the phase schedule drives rate, skew, write
        // mix, and bursts; ids stay dense counters and every per-op
        // choice is a counter hash, so the trace is bit-identical for
        // any thread count.
        const u32 n = traffic_.arrivalsAt(tick);
        const double wf = traffic_.writeFractionAt(tick);
        for (u32 i = 0; i < n; ++i) {
            const u64 op = ++nextOp_;
            const u64 kh = mix64(cfg_.seed ^ 0x7A5Cull ^
                                 op * 0x9E3779B97F4A7C15ull);
            const u64 key = traffic_.keyAt(tick, unit(kh));
            const u64 wcoin = mix64(cfg_.seed ^ 0x3217Eull ^
                                    op * 0xBF58476D1CE4E5B9ull);
            if (coin(wcoin, wf))
                client_.startWrite(op, key, tick);
            else
                client_.startRead(op, key, tick);
        }
        return;
    }
    for (u32 i = 0; i < cfg_.arrivalsPerTick; ++i) {
        // Operation ids are dense counters; every per-op random choice
        // (user, key, kind) is a hash of the id, never an RNG draw.
        const u64 op = tick * cfg_.arrivalsPerTick + i + 1;
        const u64 user =
            mix64(cfg_.seed ^ 0x05E2ull ^ op * 0x9E3779B97F4A7C15ull) %
            cfg_.users;
        const u64 key =
            mix64(user * 0xD6E8FEB86659FD93ull ^ cfg_.seed) %
            cfg_.keySpace;
        const u64 wcoin =
            mix64(cfg_.seed ^ 0x3217Eull ^ op * 0xBF58476D1CE4E5B9ull);
        if (coin(wcoin, cfg_.writeFraction))
            client_.startWrite(op, key, tick);
        else
            client_.startRead(op, key, tick);
    }
}

void
FleetCampaign::collectOutboxes()
{
    // Frame each server's outbox and ship it back over the same
    // transport, then deliver in server-index order.
    for (u32 s = 0; s < cfg_.servers; ++s) {
        const auto &out = fleet_[s]->outbox();
        if (out.empty())
            continue;
        respWriter_.beginResponseFrame();
        for (const Response &r : out) {
            respWriter_.add(r);
            if (respWriter_.count() == kFrameRecords) {
                transport_.sendToClient(s, respWriter_.finish());
                respWriter_.beginResponseFrame();
            }
        }
        if (respWriter_.count() > 0)
            transport_.sendToClient(s, respWriter_.finish());
    }
    for (u32 s = 0; s < cfg_.servers; ++s) {
        RxStream &rx = transport_.clientRx(s);
        while (!rx.pending().empty()) {
            FrameView view;
            std::size_t consumed = 0;
            const DecodeStatus st =
                decodeFrame(rx.pending(), view, &consumed);
            if (st != DecodeStatus::Ok)
                fatal("FleetCampaign: response frame from server "
                      "%u failed to decode: %s",
                      s, decodeStatusName(st));
            if (view.kind() != FrameKind::ResponseBatch)
                fatal("FleetCampaign: request frame on the client "
                      "rx path");
            for (u32 i = 0; i < view.count(); ++i)
                responses_.push_back(view.responseAt(i));
            rx.consume(consumed);
        }
        rx.compact();
    }
}

void
FleetCampaign::stepServers()
{
    if (pool_->size() > 1) {
        pool_->parallelFor(cfg_.servers, 1,
                           [this](u64 b, u64 e, unsigned) {
                               for (u64 s = b; s < e; ++s)
                                   fleet_[s]->step(tick_);
                           });
    } else {
        for (u32 s = 0; s < cfg_.servers; ++s)
            fleet_[s]->step(tick_);
    }
}

FleetResult
FleetCampaign::run()
{
    advanceTo(cfg_.ticks);
    return finish();
}

void
FleetCampaign::advanceTo(u64 target)
{
    if (finished_)
        fatal("FleetCampaign: advanceTo after finish()");
    if (target > cfg_.ticks)
        fatal("FleetCampaign: advanceTo(%llu) beyond the campaign's "
              "%llu ticks",
              static_cast<unsigned long long>(target),
              static_cast<unsigned long long>(cfg_.ticks));

    for (; tick_ < target; ++tick_) {
        {
            // Serial phase: all cross-server communication, fixed
            // order. The scoped role grant is what lets these calls
            // satisfy CITADEL_REQUIRES(kSerialPhase).
            ThreadRoleGrant serial(kSerialPhase);
            applyChaos(tick_, loopCounters_);
            deliverDue(tick_);
            client_.tick(tick_);
            arrivals(tick_);
            // Ship every queued request before the coordinator
            // probes: a fence must clear the server's inbox only
            // after this tick's sends landed.
            flushFrames();
            coordinator_->tick(tick_, loopCounters_);
        }
        // Parallel phase: per-server state only; the role is dropped,
        // so worker lambdas cannot reach serial-phase methods.
        stepServers();
        {
            // Serial collection, server-index order.
            ThreadRoleGrant serial(kSerialPhase);
            collectOutboxes();
        }
    }
}

FleetResult
FleetCampaign::finish()
{
    if (finished_)
        fatal("FleetCampaign: finish() may be called once");
    advanceTo(cfg_.ticks);
    finished_ = true;

    // Settle: no new arrivals; run until every in-flight operation has
    // resolved (the op deadline bounds this, and its last responses
    // land one tick later) and the wire is empty.
    const u64 settle_limit = cfg_.ticks + cfg_.retry.opDeadline + 3;
    for (; tick_ < settle_limit; ++tick_) {
        {
            ThreadRoleGrant serial(kSerialPhase);
            if (client_.inflight() == 0 && responses_.empty())
                break;
            deliverDue(tick_);
            client_.tick(tick_);
            flushFrames();
            coordinator_->tick(tick_, loopCounters_);
        }
        stepServers();
        {
            ThreadRoleGrant serial(kSerialPhase);
            collectOutboxes();
        }
    }

    // The pool is idle from here on: the tail of the campaign (late
    // restarts, elastic drain, audit, fingerprint) is one long serial
    // phase.
    ThreadRoleGrant serial(kSerialPhase);

    // Late restarts: a crash near the campaign end schedules its
    // rejoin past the last tick; fire those now so the fleet settles
    // with every restartable server back in the ring before the
    // audit counts liveServers.
    const auto &sched = injector_.schedule();
    while (nextEvent_ < sched.size()) {
        const ChaosEvent &ev = sched[nextEvent_++];
        if (ev.kind != ChaosEvent::Kind::Restart)
            continue;
        StackServer &srv = *fleet_[ev.server];
        if (srv.state() == ServerState::Crashed)
            srv.restart();
        if (srv.state() == ServerState::Fenced)
            coordinator_->requestJoin(ev.server, tick_, loopCounters_);
    }

    // Warm fills and re-replication settle before the audit: both are
    // part of the service's durability story, not background niceties.
    coordinator_->drainElastic(tick_, loopCounters_);
    client_.finish();

    FleetCounters totals = loopCounters_;
    totals.add(client_.counters());
    for (u32 s = 0; s < cfg_.servers; ++s) {
        const ServerStats &st = fleet_[s]->stats();
        totals.requestsServed += st.served;
        totals.serviceUnitsSpent += st.unitsSpent;
        totals.queueRejections += st.rejected;
        totals.deviceDueReads += st.dueReads;
        totals.deviceCorrected += st.corrected;
    }
    return audit(totals);
}

FleetResult
FleetCampaign::audit(FleetCounters totals)
{
    FleetResult res;
    res.totals = totals;

    // Durability: every acknowledged write must be readable, at its
    // acked version or newer, from some in-service server — and an
    // equal-version copy must carry the exact digest the client wrote.
    client_.forEachAcked([&](u64 key, const FleetClient::AckedWrite &aw) {
        assertRoleHeld(kSerialPhase);
        ++res.auditedWrites;
        bool ok = false;
        bool mismatch = false;
        for (u32 s = 0; s < cfg_.servers && !ok; ++s) {
            if (!coordinator_->inService(s))
                continue;
            const auto [version, value] = fleet_[s]->lookup(key);
            if (version > aw.version)
                ok = true;
            else if (version == aw.version) {
                if (value == aw.value)
                    ok = true;
                else
                    mismatch = true;
            }
        }
        if (!ok) {
            if (mismatch)
                ++res.corruptAckedWrites;
            else
                ++res.lostAckedWrites;
        }
    });

    // Acked-completion latency percentiles from the client histogram.
    const std::vector<u64> &hist = client_.latencyHist();
    u64 totalAcked = 0;
    for (const u64 b : hist)
        totalAcked += b;
    if (totalAcked > 0) {
        u64 cum = 0;
        bool got50 = false;
        for (u64 d = 0; d < hist.size(); ++d) {
            cum += hist[d];
            if (!got50 && cum * 2 >= totalAcked) {
                res.p50LatencyTicks = d;
                got50 = true;
            }
            if (cum * 100 >= totalAcked * 99) {
                res.p99LatencyTicks = d;
                break;
            }
        }
    }

    res.servers.reserve(cfg_.servers);
    for (u32 s = 0; s < cfg_.servers; ++s) {
        const StackServer &srv = *fleet_[s];
        ServerReport rep;
        rep.state = srv.state();
        rep.served = srv.stats().served;
        rep.rejected = srv.stats().rejected;
        rep.dueReads = srv.stats().dueReads;
        rep.corrected = srv.stats().corrected;
        rep.kvKeys = srv.kvCount();
        rep.divergences = srv.datapath().counters().divergences;
        rep.serviceUnits = srv.serviceUnitsPerTick();
        rep.capacityFraction = srv.state() == ServerState::Crashed
                                   ? 0.0
                                   : srv.health().capacityFraction;
        res.divergences += rep.divergences;
        if (coordinator_->inService(s))
            ++res.liveServers;
        res.servers.push_back(rep);
    }

    ByteSink sink;
    // `resumes` counts loadState() calls — operator action, not
    // campaign behavior — so the fingerprint hashes it as zero: a
    // resumed campaign must fingerprint bit-identically to an
    // uninterrupted one, whatever the cut point.
    FleetCounters fpTotals = res.totals;
    fpTotals.resumes = 0;
    Writer{sink}(fpTotals);
    coordinator_->saveState(sink);
    client_.serialize(sink);
    for (u32 s = 0; s < cfg_.servers; ++s)
        fleet_[s]->serialize(sink);
    res.fingerprint = fnv1a(sink.bytes());
    return res;
}

u64
FleetCampaign::checkpointGuard() const
{
    ByteSink sink;
    digestConfig(cfg_, sink);
    for (const ChaosEvent &ev : injector_.schedule()) {
        sink.putU64(ev.tick);
        sink.putU8(static_cast<u8>(ev.kind));
        sink.putU32(ev.server);
        sink.putU64(ev.duration);
        sink.putU32(ev.factor);
    }
    return fnv1a(sink.bytes());
}

void
FleetCampaign::fields(auto &io, auto &self)
{
    io.expect(self.checkpointGuard(),
              "FleetCampaign: checkpoint does not match this campaign "
              "(different config, seed, or chaos schedule)");
    io(self.tick_, self.nextOp_, self.nextEvent_, self.loopCounters_);
    nestSerial(io, self.client_);
    nestSerial(io, *self.coordinator_);
    for (const auto &srv : self.fleet_)
        nestSerial(io, *srv);
    io(self.responses_);
}

void
FleetCampaign::saveState(ByteSink &sink) const
{
    if (finished_)
        fatal("FleetCampaign: saveState after finish()");
    // saveState is called between advanceTo() calls — one long serial
    // phase as far as the campaign is concerned.
    ThreadRoleGrant serial(kSerialPhase);
    for (u32 s = 0; s < cfg_.servers; ++s)
        if (reqFrames_[s].open() || !seqScratch_[s].empty())
            fatal("FleetCampaign: saveState with unflushed request "
                  "frames (not at a tick boundary)");
    Writer out(sink);
    fields(out, *this);
}

void
FleetCampaign::loadState(ByteSource &src)
{
    if (finished_)
        fatal("FleetCampaign: loadState after finish()");
    ThreadRoleGrant serial(kSerialPhase);
    Reader in(src);
    fields(in, *this);
    if (tick_ > cfg_.ticks || nextEvent_ > injector_.schedule().size())
        fatal("FleetCampaign: corrupt checkpoint cursors");
    if (src.remaining() != 0)
        fatal("FleetCampaign: corrupt checkpoint: %zu trailing bytes "
              "after the in-flight responses",
              src.remaining());
    ++loopCounters_.resumes;
}

} // namespace fleet
} // namespace citadel
