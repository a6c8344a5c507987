#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <type_traits>

#include "citadel/citadel.h"
#include "common/log.h"
#include "common/rng.h"
#include "context.h"
#include "faults/monte_carlo.h"
#include "fleet/fleet_sim.h"
#include "fleet/traffic.h"
#include "percentile.h"
#include "timed_ras_hook.h"

namespace perfbench {

namespace {

using namespace citadel;
using fleet::FleetCampaign;
using fleet::FleetConfig;
using fleet::FleetResult;

// ---- Workload sizes ------------------------------------------------
// A unit is the fixed amount of work one seed defines; the timed run
// repeats units for --seconds. Sizes keep a unit between about 0.3 and
// 2.5 seconds on a 4-core x86 host, so a 10-second run takes several
// units and reports their median.

/** Lifetimes per scheme per unit (the paper runs 1e5-1e6). */
constexpr u64 kMcLifetimesPerScheme = 250'000;

/** Trials per sampling/execution batch of the serial replay (the
 *  engine's own serial batch size). */
constexpr u64 kMcReplayBatch = 1024;

/**
 * Per-trial seed mix of MonteCarlo::run (faults/monte_carlo.cc): trial
 * t draws from Rng(seed ^ kMcSeedMix * (t + 1)). It is part of the
 * engine's determinism contract (DESIGN.md section 9), and the serial
 * replay reproduces the engine's result only while it holds.
 */
constexpr u64 kMcSeedMix = 0xA24BAED4963EE407ull;

/** Instructions per core per profile in timing_suite. */
constexpr u64 kSuiteInsnsPerCore = 100'000;

/** Instructions per core per ras_live scenario (2 cores of mcf). */
constexpr u64 kRasInsnsPerCore = 30'000;

/**
 * fleet_serve's offered load, open-loop in virtual ticks: a read-heavy
 * phase with zipf-0.9 key skew, then a write-heavy phase with 2x
 * bursts. 32 arrivals per tick sits below the saturation knee of
 * FleetConfig::demo()'s eight servers: skewing the write-heavy phase
 * too, or bursting it every 256 ticks, already fails operations.
 */
constexpr const char *kFleetTrace =
    "ticks=6144,rate=32,write=0.2,zipf=0.9;"
    "ticks=6144,rate=32,write=0.6,burst=2,every=512,len=32";

/**
 * Simulated device hours the campaign compresses onto its ticks. At
 * demo() fault rates, 200 hours leaves a server with an unsparable
 * fault in about one seed in four, and every read it serves is then
 * corrected (10k-16k corrections, 15x slower); 2 hours keeps the
 * datapath on its clean path, so the request path dominates.
 */
constexpr double kFleetAgingHours = 2.0;

/** Ticks a crashed or stall-evicted server waits before rejoining. */
constexpr u64 kFleetRestartAfterTicks = 192;

/**
 * fleet_serve steps its servers inline. Each tick's eight server steps
 * take tens of microseconds, so the thread pool's per-tick fork/join
 * costs more than it saves: on a 4-CPU x86 host 4 workers serve about
 * 0.5 Mop/s against 1.0 Mop/s inline, and vary three times as much.
 */
constexpr unsigned kFleetThreads = 1;

// ---- Helpers -------------------------------------------------------

/** FNV-1a over 64-bit words: the digest of a unit's outputs. */
class Digest
{
  public:
    void add(u64 v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 0x100000001B3ull;
        }
    }
    void add(double v) { add(std::bit_cast<u64>(v)); }

    /** Every field of a flat all-u64 struct. */
    template <typename T>
    void addWords(const T &v)
    {
        static_assert(std::has_unique_object_representations_v<T> &&
                      sizeof(T) % sizeof(u64) == 0);
        u64 words[sizeof(T) / sizeof(u64)];
        std::memcpy(words, &v, sizeof(T));
        for (u64 w : words)
            add(w);
    }

    u64 value() const { return h_; }

  private:
    u64 h_ = 0xCBF29CE484222325ull;
};

void
addSim(Digest &d, const SimResult &r)
{
    d.add(r.cycles);
    d.add(r.insnsRetired);
    d.addWords(r.mem);
    d.addWords(r.llc);
    d.add(r.power.activateW);
    d.add(r.power.readWriteW);
    d.add(r.power.refreshW);
    d.add(r.retiredLines);
    d.add(r.capacityFraction);
}

/** Run `f`, one of a unit's timed calls: its host seconds add to
 *  u.runS and its process CPU seconds to u.cpuS. Returns the former. */
template <typename F>
double
timed(UnitResult &u, F &&f)
{
    const auto t0 = Clock::now();
    const double cpu0 = processCpuSeconds();
    f();
    const double wall = seconds(t0, Clock::now());
    u.runS += wall;
    u.cpuS += processCpuSeconds() - cpu0;
    return wall;
}

/** Run `f`, part of a unit's set-up: its host seconds add to `secs`. */
template <typename F>
void
setup(double &secs, F &&f)
{
    const auto t0 = Clock::now();
    f();
    secs += seconds(t0, Clock::now());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
asDouble(u64 v)
{
    return static_cast<double>(v);
}

/** Record a failed output check. */
void
problem(UnitResult &u, std::string what)
{
    u.problems.push_back(std::move(what));
}

/** Sums over several timing runs, for the sim.* layer metrics. */
struct SimTotals
{
    u64 cycles = 0;
    u64 bursts = 0;
    u64 rowHits = 0;
    u64 rowMisses = 0;
    u64 parityProbes = 0;
    u64 parityHits = 0;

    void add(const SimResult &r)
    {
        cycles += r.cycles;
        bursts += r.mem.readBursts + r.mem.writeBursts;
        rowHits += r.mem.rowHits;
        rowMisses += r.mem.rowMisses;
        parityProbes += r.llc.parityProbes;
        parityHits += r.llc.parityHits;
    }

    void report(std::vector<Metric> &out, double run_s) const
    {
        out.push_back({"sim.cycles", asDouble(cycles), "cycles"});
        out.push_back({"sim.dram_bursts", asDouble(bursts), "count"});
        out.push_back({"sim.ns_per_dram_burst",
                       ratio(run_s * 1e9, asDouble(bursts)), "ns/burst"});
        out.push_back({"sim.row_hit_rate",
                       ratio(asDouble(rowHits), asDouble(rowHits + rowMisses)),
                       "ratio"});
        out.push_back({"sim.parity_hit_rate",
                       ratio(asDouble(parityHits), asDouble(parityProbes)),
                       "ratio"});
    }
};

// ---- mc_paper ------------------------------------------------------

/**
 * Fig 18 at the paper's rates: Citadel (TSV-SWAP + DDS + 3DP) against
 * the 8-bit symbol code striped across channels with TSV-SWAP, Table I
 * FIT, TSV faults at 1430 FIT, 7-year life, 12-hour scrub.
 */
class McPaper final : public Workload
{
  public:
    explicit McPaper(u64 seed) : seed_(seed), threads_(availableCpus())
    {
        cfg_.tsvDeviceFit = 1430.0;
    }

    const char *workUnit() const override { return "lifetimes"; }
    unsigned threads() const override { return threads_; }

    UnitResult runUnit(Tracer &tr) override
    {
        UnitResult u;
        std::optional<MonteCarlo> mc;
        std::vector<SchemePtr> schemes;
        setup(u.setupS, [&] {
            auto s = tr.span("faults.setup");
            mc.emplace(cfg_);
            schemes = makeSchemes();
        });

        results_.clear();
        timed(u, [&] {
            for (std::size_t i = 0; i < schemes.size(); ++i) {
                auto s = tr.span(std::string("faults.mc_run.") + kKeys[i]);
                results_.push_back(mc->run(
                    *schemes[i], kMcLifetimesPerScheme, seed_, threads_));
            }
        });
        u.work = asDouble(kMcLifetimesPerScheme * schemes.size());

        Digest d;
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const McResult &r = results_[i];
            d.add(r.trials);
            d.add(r.failures);
            for (u64 y : r.failuresByYear)
                d.add(y);
            for (const auto &[cls, n] : r.failuresByClass) {
                d.add(static_cast<u64>(cls));
                d.add(n);
            }
            d.add(r.meanFaultsPerTrial);
            checkResult(u, kKeys[i], r);
        }
        u.digest = d.value();
        u.e2e.push_back({"mc_lifetimes_per_s", ratio(u.work, u.runS),
                         "lifetimes/s"});

        if (tr.enabled()) {
            u.layers.push_back({"faults.setup_s", u.setupS, "s"});
            u.layers.push_back({"mc.wall_s", u.runS, "s"});
            u.layers.push_back({"mc.cpu_s", u.cpuS, "s"});
            for (std::size_t i = 0; i < results_.size(); ++i) {
                const std::string key = std::string("mc.") + kKeys[i];
                const Proportion p = results_[i].probFail();
                u.layers.push_back(
                    {key + ".failures", asDouble(p.successes), "count"});
                u.layers.push_back({key + ".hi95", p.hi95, "probability"});
                // Undefined without a failure; reported as 0 then.
                u.layers.push_back(
                    {key + ".rel_halfwidth",
                     ratio(0.5 * (p.hi95 - p.lo95), p.estimate), "ratio"});
            }
        }
        return u;
    }

    /**
     * MonteCarlo::run samples and executes inside its workers, so the
     * traced run replays the same lifetimes serially through the public
     * sampleLifetime + runTrial calls, timing the two phases per batch,
     * and requires the replay to reproduce the timed McResult exactly.
     */
    void explain(Tracer &tr, UnitResult &u) override
    {
        const MonteCarlo mc(cfg_);
        const FaultInjector injector(cfg_);
        const u32 years =
            static_cast<u32>(std::ceil(cfg_.lifetimeHours / kHoursPerYear));
        const std::vector<SchemePtr> schemes = makeSchemes();

        u64 total_faults = 0;
        std::vector<std::vector<Fault>> batch(kMcReplayBatch);
        std::vector<Fault> active;
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            auto replay = tr.span(std::string("faults.replay.") + kKeys[i]);
            McResult r;
            r.trials = kMcLifetimesPerScheme;
            r.failuresByYear.assign(years, 0);
            u64 faults = 0;
            for (u64 b = 0; b < r.trials; b += kMcReplayBatch) {
                const u64 n = std::min(kMcReplayBatch, r.trials - b);
                {
                    auto s = tr.span("faults.sample");
                    for (u64 t = b; t < b + n; ++t) {
                        Rng rng(seed_ ^ (kMcSeedMix * (t + 1)));
                        injector.sampleLifetime(rng, batch[t - b]);
                    }
                }
                auto s = tr.span("faults.exec");
                for (u64 k = 0; k < n; ++k) {
                    faults += batch[k].size();
                    FaultClass trigger = FaultClass::Bit;
                    const double at =
                        mc.runTrial(*schemes[i], batch[k], &trigger, active);
                    if (at < 0.0)
                        continue;
                    ++r.failures;
                    ++r.failuresByClass[trigger];
                    const u32 year = std::min(
                        years - 1,
                        static_cast<u32>(std::floor(at / kHoursPerYear)));
                    for (u32 y = year; y < years; ++y)
                        ++r.failuresByYear[y];
                }
            }
            r.meanFaultsPerTrial = asDouble(faults) / asDouble(r.trials);
            total_faults += faults;

            const McResult &timed = results_[i];
            ++u.attempted;
            if (r.failures != timed.failures ||
                r.failuresByYear != timed.failuresByYear ||
                r.failuresByClass != timed.failuresByClass ||
                r.meanFaultsPerTrial != timed.meanFaultsPerTrial) {
                ++u.failed;
                problem(u, std::string("mc_paper: serial replay of ") +
                               kKeys[i] + " differs from MonteCarlo::run");
            }
        }

        const double lifetimes =
            asDouble(kMcLifetimesPerScheme * schemes.size());
        u.layers.push_back({"faults.sample_ns_per_lifetime",
                            tr.total("faults.sample") * 1e9 / lifetimes,
                            "ns/lifetime"});
        u.layers.push_back({"faults.exec_ns_per_lifetime",
                            tr.total("faults.exec") * 1e9 / lifetimes,
                            "ns/lifetime"});
        double replay_s = 0.0;
        for (const char *key : kKeys)
            replay_s += tr.total(std::string("faults.replay.") + key);
        u.layers.push_back({"faults.sample_share",
                            ratio(tr.total("faults.sample"), replay_s),
                            "ratio"});
        u.layers.push_back({"faults.faults_per_lifetime",
                            asDouble(total_faults) / lifetimes,
                            "faults/lifetime"});
    }

  private:
    static constexpr const char *kKeys[] = {"citadel", "ssc"};

    /** The compared schemes, in kKeys order. */
    static std::vector<SchemePtr> makeSchemes()
    {
        std::vector<SchemePtr> schemes;
        schemes.push_back(makeCitadel());
        schemes.push_back(
            makeSymbolBaseline(StripingMode::AcrossChannels, true));
        return schemes;
    }

    static void checkResult(UnitResult &u, const char *key,
                            const McResult &r)
    {
        ++u.attempted;
        u64 by_class = 0;
        for (const auto &[cls, n] : r.failuresByClass)
            by_class += n;
        const bool ok =
            r.trials == kMcLifetimesPerScheme && r.failures <= r.trials &&
            !r.failuresByYear.empty() &&
            r.failuresByYear.back() == r.failures && by_class == r.failures &&
            std::is_sorted(r.failuresByYear.begin(), r.failuresByYear.end());
        if (!ok) {
            ++u.failed;
            problem(u, std::string("mc_paper: inconsistent McResult for ") +
                           key);
        }
    }

    SystemConfig cfg_;
    u64 seed_;
    unsigned threads_;
    std::vector<McResult> results_;
};

// ---- timing_suite --------------------------------------------------

/**
 * Figs 15/16: every profile on the default geometry, Same-Bank
 * striping, 3DP with cached D1 parity, no RAS hook. Statistics start
 * from the LLC the SystemSim constructor warms.
 */
class TimingSuite final : public Workload
{
  public:
    explicit TimingSuite(u64 seed)
    {
        cfg_.striping = StripingMode::SameBank;
        cfg_.ras = RasTraffic::ThreeDPCached;
        cfg_.stepping = SimStepping::Event;
        cfg_.insnsPerCore = kSuiteInsnsPerCore;
        cfg_.seed = seed;
    }

    const char *workUnit() const override { return "instructions"; }
    unsigned threads() const override { return 1; }

    UnitResult runUnit(Tracer &tr) override
    {
        UnitResult u;
        Digest d;
        SimTotals totals;
        for (const BenchmarkProfile &p : allBenchmarks()) {
            std::optional<SystemSim> sim;
            setup(u.setupS, [&] {
                auto s = tr.span("sim.ctor");
                sim.emplace(cfg_, p);
            });
            SimResult r;
            timed(u, [&] {
                auto s = tr.span("sim.run." + p.name);
                r = sim->run();
            });
            u.work += asDouble(r.insnsRetired);
            addSim(d, r);
            totals.add(r);

            ++u.attempted;
            if (r.cycles == 0 || r.insnsRetired < cfg_.cores * cfg_.insnsPerCore) {
                ++u.failed;
                problem(u, "timing_suite: " + p.name +
                               " did not retire its instruction budget");
            }
        }
        u.digest = d.value();
        u.e2e.push_back({"sim_kips", ratio(u.work, u.runS) / 1e3, "kips"});

        if (tr.enabled()) {
            u.layers.push_back({"sim.ctor_s", u.setupS, "s"});
            for (const BenchmarkProfile &p : allBenchmarks())
                u.layers.push_back(
                    {"sim.run_s." + p.name, tr.total("sim.run." + p.name),
                     "s"});
            totals.report(u.layers, u.runS);
        }
        return u;
    }

  private:
    SimConfig cfg_;
};

// ---- ras_live ------------------------------------------------------

/**
 * The demand-correction path of an aged device: tiny geometry, 2-core
 * mcf, LiveRasDatapath with default options and the fault script of
 * scheduleRasLiveFaults().
 */
class RasLive final : public Workload
{
  public:
    explicit RasLive(u64 seed) : seed_(seed), cfg_(rasLiveSimConfig(seed)) {}

    const char *workUnit() const override { return "instructions"; }
    unsigned threads() const override { return 1; }

    UnitResult runUnit(Tracer &tr) override
    {
        UnitResult u;
        Digest d;
        SimTotals totals;
        RasCounters sum;
        HookTimes times;
        double ras_ctor_s = 0.0;
        double sim_ctor_s = 0.0;
        for (u32 k = 0; k < kRasLiveScenarios; ++k) {
            std::optional<LiveRasDatapath> dp;
            setup(ras_ctor_s, [&] {
                auto s = tr.span("ras.ctor");
                LiveRasOptions opts;
                opts.seed = seed_;
                dp.emplace(cfg_, opts);
                scheduleRasLiveFaults(*dp, seed_, k);
            });
            std::optional<SystemSim> sim;
            setup(sim_ctor_s, [&] {
                auto s = tr.span("sim.ctor");
                sim.emplace(cfg_, rasLiveProfile());
            });
            // The decorator is attached only when tracing, so the timed
            // run carries no per-callback clock reads.
            HookTimes scenario;
            TimedRasHook hook(*dp, scenario);
            sim->attachRas(tr.enabled() ? static_cast<RasHook *>(&hook)
                                        : &*dp);

            SimResult r;
            timed(u, [&] {
                auto s = tr.span("sim.run.mcf");
                r = sim->run();
                for (const auto &[name, calls] :
                     {std::pair{"ras.tick", &HookTimes::ticks},
                      std::pair{"ras.read.clean", &HookTimes::clean},
                      std::pair{"ras.read.corrected", &HookTimes::corrected},
                      std::pair{"ras.read.due", &HookTimes::uncorrectable},
                      std::pair{"ras.next_event", &HookTimes::nextEvent}}) {
                    const HookTimes::Calls &c = scenario.*calls;
                    tr.addAggregate(name, c.n, c.secs);
                    (times.*calls).n += c.n;
                    (times.*calls).secs += c.secs;
                }
            });
            u.work += asDouble(r.insnsRetired);

            const RasCounters &c = dp->counters();
            addSim(d, r);
            d.addWords(c);
            d.add(dp->stateFingerprint());
            totals.add(r);
            sum.ce += c.ce;
            sum.due += c.due;
            sum.sdc += c.sdc;
            sum.parityGroupReads += c.parityGroupReads;
            sum.rowsSpared += c.rowsSpared;
            sum.banksSpared += c.banksSpared;
            sum.divergences += c.divergences;
        }
        u.setupS = ras_ctor_s + sim_ctor_s;
        u.digest = d.value();

        ++u.attempted;
        if (sum.sdc != 0 || sum.divergences != 0 || sum.ce < kRasLiveCeFloor) {
            ++u.failed;
            problem(u, "ras_live: sdc " + std::to_string(sum.sdc) +
                           ", divergences " +
                           std::to_string(sum.divergences) + ", ce " +
                           std::to_string(sum.ce) + " (floor " +
                           std::to_string(kRasLiveCeFloor) + ")");
        }
        u.e2e.push_back({"sim_kips", ratio(u.work, u.runS) / 1e3, "kips"});

        if (tr.enabled()) {
            const HookTimes::Calls &clean = times.clean;
            const HookTimes::Calls &corrected = times.corrected;
            std::vector<Metric> &m = u.layers;
            m.push_back({"ras.ctor_s", ras_ctor_s, "s"});
            m.push_back({"sim.ctor_s", sim_ctor_s, "s"});
            m.push_back({"sim.run_s.mcf", u.runS, "s"});
            totals.report(m, u.runS);
            m.push_back({"ras.read_us.clean",
                         ratio(clean.secs * 1e6, asDouble(clean.n)),
                         "us/call"});
            m.push_back({"ras.read_us.corrected",
                         ratio(corrected.secs * 1e6, asDouble(corrected.n)),
                         "us/call"});
            m.push_back({"ras.reads.clean", asDouble(clean.n), "count"});
            m.push_back(
                {"ras.reads.corrected", asDouble(corrected.n), "count"});
            m.push_back(
                {"ras.reads.due", asDouble(times.uncorrectable.n), "count"});
            m.push_back({"ras.tick_s", times.ticks.secs, "s"});
            m.push_back({"ras.ticks", asDouble(times.ticks.n), "count"});
            m.push_back({"ras.next_event_s", times.nextEvent.secs, "s"});
            m.push_back({"ras.next_event_calls",
                         asDouble(times.nextEvent.n), "count"});
            m.push_back(
                {"ras.sim_self_s", u.runS - times.hookSeconds(), "s"});
            m.push_back({"ras.demand_read_share",
                         ratio(times.readSeconds(), u.runS), "ratio"});
            m.push_back({"ras.ce", asDouble(sum.ce), "count"});
            m.push_back({"ras.due", asDouble(sum.due), "count"});
            m.push_back({"ras.sdc", asDouble(sum.sdc), "count"});
            m.push_back(
                {"ras.group_reads", asDouble(sum.parityGroupReads), "count"});
            m.push_back({"ras.rows_spared", asDouble(sum.rowsSpared), "count"});
            m.push_back(
                {"ras.banks_spared", asDouble(sum.banksSpared), "count"});
            m.push_back(
                {"ras.divergences", asDouble(sum.divergences), "count"});
        }
        return u;
    }

  private:
    u64 seed_;
    SimConfig cfg_;
};

// ---- fleet_serve ---------------------------------------------------

/** fleet_serve's campaign configuration for `seed`. */
FleetConfig
fleetServeConfig(u64 seed)
{
    FleetConfig cfg = FleetConfig::demo();
    cfg.traffic = kFleetTrace;
    cfg.chaos.restartAfterTicks = kFleetRestartAfterTicks;
    cfg.coord.rebalanceEnabled = true;
    cfg.server.agingHours = kFleetAgingHours;
    cfg.seed = seed;
    cfg.threads = kFleetThreads;
    return cfg;
}

/**
 * The request path: FleetConfig::demo() servers under the two-phase
 * trace with default chaos, restarts and load rebalance, cut once at
 * mid-run by saveState / loadState into a fresh campaign.
 */
class FleetServe final : public Workload
{
  public:
    explicit FleetServe(u64 seed) : cfg_(fleetServeConfig(seed))
    {
        fleet::TrafficModel model;
        std::string err;
        if (!fleet::TrafficModel::parse(cfg_.traffic, model, &err))
            fatal("fleet_serve: trace spec: %s", err.c_str());
        ticks_ = model.totalTicks();
    }

    const char *workUnit() const override { return "operations"; }
    unsigned threads() const override { return kFleetThreads; }

    UnitResult runUnit(Tracer &tr) override
    {
        UnitResult u;
        const u64 cut = ticks_ / 2;
        std::vector<double> tick_us;

        std::unique_ptr<FleetCampaign> first;
        setup(u.setupS, [&] { first = construct(tr); });
        timed(u, [&] { advance(tr, *first, cut, tick_us); });
        ByteSink sink;
        const double save_s = timed(u, [&] {
            auto s = tr.span("fleet.checkpoint.save");
            first->saveState(sink);
        });
        {
            auto s = tr.span("fleet.teardown");
            first.reset();
        }

        std::unique_ptr<FleetCampaign> second;
        setup(u.setupS, [&] { second = construct(tr); });
        const double load_s = timed(u, [&] {
            auto s = tr.span("fleet.checkpoint.load");
            ByteSource src(sink.bytes());
            second->loadState(src);
        });
        timed(u, [&] { advance(tr, *second, ticks_, tick_us); });
        FleetResult res;
        const double finish_s = timed(u, [&] {
            auto s = tr.span("fleet.finish");
            res = second->finish();
        });
        {
            auto s = tr.span("fleet.teardown");
            second.reset();
        }

        const fleet::FleetCounters &c = res.totals;
        u.work = asDouble(c.opsAcked + c.opsFailed);
        u.attempted = c.opsIssued;
        u.failed = c.opsFailed + c.opsUnresolved;
        fingerprint_ = res.fingerprint;

        Digest d;
        d.add(res.fingerprint);
        d.add(res.p50LatencyTicks);
        d.add(res.p99LatencyTicks);
        d.add(u64{res.liveServers});
        d.add(res.auditedWrites);
        u.digest = d.value();

        if (res.lostAckedWrites != 0 || res.corruptAckedWrites != 0 ||
            res.divergences != 0)
            problem(u, "fleet_serve: audit lost " +
                           std::to_string(res.lostAckedWrites) +
                           ", corrupt " +
                           std::to_string(res.corruptAckedWrites) +
                           ", divergences " +
                           std::to_string(res.divergences));
        if (c.opsAcked == 0)
            problem(u, "fleet_serve: no operation acknowledged");
        if (c.resumes != 1)
            problem(u, "fleet_serve: resumed campaign counted " +
                           std::to_string(c.resumes) + " resumes");

        u.e2e.push_back(
            {"fleet_kops_per_s", ratio(u.work, u.runS) / 1e3, "kops/s"});
        u.e2e.push_back(
            {"fleet_p50_ticks", asDouble(res.p50LatencyTicks), "ticks"});
        u.e2e.push_back(
            {"fleet_p99_ticks", asDouble(res.p99LatencyTicks), "ticks"});
        u.e2e.push_back(
            {"fleet_latency_samples", asDouble(c.opsAcked), "count"});

        if (tr.enabled()) {
            std::vector<Metric> &m = u.layers;
            m.push_back({"fleet.ctor_s", u.setupS, "s"});
            m.push_back({"fleet.loop_s", tr.total("fleet.loop"), "s"});
            m.push_back({"fleet.ticks", asDouble(tick_us.size()), "count"});
            // The trace has ~12k ticks, enough for a p99 (see
            // percentile()); a shorter one would report 0.
            m.push_back({"fleet.tick_host_us.p50", median(tick_us), "us"});
            m.push_back({"fleet.tick_host_us.p99",
                         percentile(tick_us, 0.99).value_or(0.0), "us"});
            m.push_back({"fleet.finish_s", finish_s, "s"});
            m.push_back({"fleet.checkpoint.save_s", save_s, "s"});
            m.push_back({"fleet.checkpoint.load_s", load_s, "s"});
            m.push_back({"fleet.checkpoint.bytes",
                         asDouble(sink.bytes().size()), "bytes"});
            m.push_back({"fleet.attempts_per_op",
                         ratio(asDouble(c.attempts), asDouble(c.opsIssued)),
                         "ratio"});
            m.push_back({"fleet.retries", asDouble(c.retries), "count"});
            m.push_back(
                {"fleet.busy_rejections", asDouble(c.busyRejections), "count"});
            m.push_back({"fleet.hedges", asDouble(c.hedges), "count"});
            m.push_back({"fleet.hedge_win_ratio",
                         ratio(asDouble(c.hedgeWins), asDouble(c.hedges)),
                         "ratio"});
            m.push_back({"fleet.duplicates_suppressed",
                         asDouble(c.duplicatesSuppressed), "count"});
            m.push_back({"fleet.warm_fills", asDouble(c.warmFills), "count"});
            m.push_back(
                {"fleet.load_migrations", asDouble(c.loadMigrations), "count"});
            m.push_back({"fleet.server_joins", asDouble(c.serverJoins), "count"});
            m.push_back(
                {"fleet.service_units", asDouble(c.serviceUnitsSpent), "count"});
            m.push_back(
                {"fleet.device_corrected", asDouble(c.deviceCorrected), "count"});
            m.push_back(
                {"fleet.p50_ticks", asDouble(res.p50LatencyTicks), "ticks"});
            m.push_back(
                {"fleet.p99_ticks", asDouble(res.p99LatencyTicks), "ticks"});
            m.push_back(
                {"fleet.latency_samples", asDouble(c.opsAcked), "count"});
        }
        return u;
    }

    /** The cut must be invisible: an uninterrupted campaign of the same
     *  config has to land on the resumed campaign's fingerprint. */
    void explain(Tracer &tr, UnitResult &u) override
    {
        auto s = tr.span("fleet.uninterrupted");
        FleetCampaign whole(cfg_);
        const FleetResult res = whole.run();
        if (res.fingerprint != fingerprint_)
            problem(u, "fleet_serve: resumed fingerprint differs from an "
                       "uninterrupted run");
    }

  private:
    std::unique_ptr<FleetCampaign> construct(Tracer &tr) const
    {
        auto s = tr.span("fleet.ctor");
        return std::make_unique<FleetCampaign>(cfg_);
    }

    /** Advance to `target`; traced runs step one tick at a time and
     *  keep each tick's host time. */
    static void advance(Tracer &tr, FleetCampaign &campaign, u64 target,
                        std::vector<double> &tick_us)
    {
        auto s = tr.span("fleet.loop");
        if (!tr.enabled()) {
            campaign.advanceTo(target);
        } else {
            while (campaign.tick() < target) {
                const auto k0 = Clock::now();
                campaign.advanceTo(campaign.tick() + 1);
                tick_us.push_back(seconds(k0, Clock::now()) * 1e6);
            }
        }
    }

    FleetConfig cfg_;
    u64 ticks_ = 0;
    u64 fingerprint_ = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "mc_paper", "timing_suite", "ras_live", "fleet_serve"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, u64 seed)
{
    if (name == "mc_paper")
        return std::make_unique<McPaper>(seed);
    if (name == "timing_suite")
        return std::make_unique<TimingSuite>(seed);
    if (name == "ras_live")
        return std::make_unique<RasLive>(seed);
    if (name == "fleet_serve")
        return std::make_unique<FleetServe>(seed);
    return nullptr;
}

const std::vector<std::pair<std::string, std::string>> &
layerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> catalog =
        [] {
            std::vector<std::pair<std::string, std::string>> c{
                // Every workload: the traced run's own accounting.
                {"trace.wall_s", "s"},
                {"trace.other_s", "s"},
                {"trace.accounted_share", "ratio"},
                {"trace.overhead_pct", "%"},
                {"host.speed", "ratio"},
                {"pool.threads", "count"},
                {"pool.cpu_per_wall", "ratio"},
                // faults (mc_paper)
                {"faults.setup_s", "s"},
                {"faults.sample_ns_per_lifetime", "ns/lifetime"},
                {"faults.exec_ns_per_lifetime", "ns/lifetime"},
                {"faults.sample_share", "ratio"},
                {"faults.faults_per_lifetime", "faults/lifetime"},
                {"mc.wall_s", "s"},
                {"mc.cpu_s", "s"},
                {"mc.citadel.failures", "count"},
                {"mc.citadel.hi95", "probability"},
                {"mc.citadel.rel_halfwidth", "ratio"},
                {"mc.ssc.failures", "count"},
                {"mc.ssc.hi95", "probability"},
                {"mc.ssc.rel_halfwidth", "ratio"},
                // sim (timing_suite, ras_live)
                {"sim.ctor_s", "s"},
            };
            for (const BenchmarkProfile &p : allBenchmarks())
                c.push_back({"sim.run_s." + p.name, "s"});
            const std::vector<std::pair<std::string, std::string>> rest{
                {"sim.ns_per_dram_burst", "ns/burst"},
                {"sim.cycles", "cycles"},
                {"sim.dram_bursts", "count"},
                {"sim.row_hit_rate", "ratio"},
                {"sim.parity_hit_rate", "ratio"},
                // ras (ras_live)
                {"ras.ctor_s", "s"},
                {"ras.read_us.clean", "us/call"},
                {"ras.read_us.corrected", "us/call"},
                {"ras.reads.clean", "count"},
                {"ras.reads.corrected", "count"},
                {"ras.reads.due", "count"},
                {"ras.tick_s", "s"},
                {"ras.ticks", "count"},
                {"ras.next_event_s", "s"},
                {"ras.next_event_calls", "count"},
                {"ras.sim_self_s", "s"},
                {"ras.demand_read_share", "ratio"},
                {"ras.ce", "count"},
                {"ras.due", "count"},
                {"ras.sdc", "count"},
                {"ras.group_reads", "count"},
                {"ras.rows_spared", "count"},
                {"ras.banks_spared", "count"},
                {"ras.divergences", "count"},
                // fleet (fleet_serve)
                {"fleet.ctor_s", "s"},
                {"fleet.loop_s", "s"},
                {"fleet.ticks", "count"},
                {"fleet.tick_host_us.p50", "us"},
                {"fleet.tick_host_us.p99", "us"},
                {"fleet.finish_s", "s"},
                {"fleet.checkpoint.save_s", "s"},
                {"fleet.checkpoint.load_s", "s"},
                {"fleet.checkpoint.bytes", "bytes"},
                {"fleet.attempts_per_op", "ratio"},
                {"fleet.retries", "count"},
                {"fleet.busy_rejections", "count"},
                {"fleet.hedges", "count"},
                {"fleet.hedge_win_ratio", "ratio"},
                {"fleet.duplicates_suppressed", "count"},
                {"fleet.warm_fills", "count"},
                {"fleet.load_migrations", "count"},
                {"fleet.server_joins", "count"},
                {"fleet.service_units", "count"},
                {"fleet.device_corrected", "count"},
                {"fleet.p50_ticks", "ticks"},
                {"fleet.p99_ticks", "ticks"},
                {"fleet.latency_samples", "count"},
            };
            c.insert(c.end(), rest.begin(), rest.end());
            return c;
        }();
    return catalog;
}

SimConfig
rasLiveSimConfig(u64 seed)
{
    SimConfig cfg;
    cfg.geom = StackGeometry::tiny();
    cfg.llcBytes = 1 << 14;
    cfg.cores = 2;
    cfg.insnsPerCore = kRasInsnsPerCore;
    cfg.ras = RasTraffic::ThreeDPCached;
    cfg.stepping = SimStepping::Event;
    cfg.seed = seed;
    return cfg;
}

const BenchmarkProfile &
rasLiveProfile()
{
    return findBenchmark("mcf");
}

void
scheduleRasLiveFaults(LiveRasDatapath &dp, u64 seed, u32 scenario)
{
    const SimConfig cfg = rasLiveSimConfig(seed);
    const StackGeometry &geom = cfg.geom;
    Rng rng(mix64(seed ^ (0x5EEDFA17ull * (scenario + 1))));

    // Rate mode gives each core a footprint slice of totalLines / 8
    // lines from the bottom of memory (sim/workload.h), so the row
    // fault goes on the row of a line the cores read.
    const u64 touched = cfg.cores * (geom.totalLines() / 8);
    const LineCoord c =
        AddressMap(geom).lineToCoord(LineAddr{rng.below(touched)});
    Fault row;
    row.cls = FaultClass::Row;
    row.stack = DimSpec::exact(c.stack.value());
    row.channel = DimSpec::exact(c.channel.value());
    row.bank = DimSpec::exact(c.bank.value());
    row.row = DimSpec::exact(c.row.value());
    dp.scheduleFault(row, 200);

    // Bank faults on three of the stack's banks, spaced so each is
    // corrected and spared before the next lands. The last one, on the
    // scenario's bank, finds both spare banks in use; the other two go
    // on banks the seed picks.
    std::vector<std::pair<u32, u32>> banks;
    for (u32 ch = 0; ch < geom.channelsPerStack; ++ch)
        for (u32 b = 0; b < geom.banksPerChannel; ++b)
            banks.push_back({ch, b});
    std::swap(banks[scenario % banks.size()], banks.back());
    for (std::size_t i = banks.size() - 2; i > 0; --i)
        std::swap(banks[i], banks[rng.below(i + 1)]);
    std::swap(banks[2], banks.back());
    for (u32 k = 0; k < 3; ++k) {
        Fault f;
        f.cls = FaultClass::Bank;
        f.stack = DimSpec::exact(0);
        f.channel = DimSpec::exact(banks[k].first);
        f.bank = DimSpec::exact(banks[k].second);
        dp.scheduleFault(f, 2'000 * (k + 1));
    }
}

} // namespace perfbench
