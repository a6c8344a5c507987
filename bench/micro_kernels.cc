/**
 * @file
 * Google-benchmark micro-kernels for the hot paths of the library:
 * CRC-32, fault-lifetime sampling, Monte Carlo trials, 3DP bit-true
 * reconstruction, LLC operations, the timing simulator's LLC
 * warm-up and run loop, and a fleet campaign's request path. These
 * quantify the cost of the machinery behind the figure benches.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <string>

#include "citadel/citadel.h"
#include "citadel/parity_engine.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "common/xor_fold.h"
#include "ecc/crc32.h"
#include "fleet/fleet_sim.h"
#include "sim/llc.h"
#include "sim/system_sim.h"
#include "sim/workload.h"

namespace citadel {
namespace {

std::vector<u8>
randomBuf(std::size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<u8> buf(n);
    for (auto &b : buf)
        b = static_cast<u8>(rng.next());
    return buf;
}

void
BM_XorFoldScalar(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    auto acc = randomBuf(n, 10);
    const auto src = randomBuf(n, 11);
    for (auto _ : state) {
        xorFoldScalar(acc.data(), src.data(), n);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_XorFoldScalar)->Arg(16384)->Arg(1 << 20);

void
BM_XorFoldDispatched(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    auto acc = randomBuf(n, 12);
    const auto src = randomBuf(n, 13);
    state.SetLabel(xorKernelOps().path);
    for (auto _ : state) {
        xorFold(acc.data(), src.data(), n);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_XorFoldDispatched)->Arg(16384)->Arg(1 << 20);

void
BM_XorFoldN(benchmark::State &state)
{
    constexpr std::size_t kLine = 16384;
    const auto k = static_cast<std::size_t>(state.range(0));
    auto acc = randomBuf(kLine, 14);
    std::vector<std::vector<u8>> lines;
    std::vector<const u8 *> srcs;
    for (std::size_t i = 0; i < k; ++i) {
        lines.push_back(randomBuf(kLine, 20 + i));
        srcs.push_back(lines.back().data());
    }
    state.SetLabel(xorKernelOps().path);
    for (auto _ : state) {
        xorFoldN(acc.data(), srcs.data(), k, kLine);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kLine * k));
}
BENCHMARK(BM_XorFoldN)->Arg(4)->Arg(8);

void
BM_Crc32Slice8(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto buf = randomBuf(n, 30);
    u32 crc = Crc32::begin();
    for (auto _ : state) {
        crc = Crc32::updateSlice8(crc, buf);
        benchmark::DoNotOptimize(crc);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32Slice8)->Arg(16384)->Arg(1 << 20);

void
BM_Crc32Hw(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto buf = randomBuf(n, 31);
    state.SetLabel(Crc32::hwAvailable() ? Crc32::activePathName()
                                        : "slice8-fallback");
    u32 crc = Crc32::begin();
    for (auto _ : state) {
        crc = Crc32::updateHw(crc, buf);
        benchmark::DoNotOptimize(crc);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32Hw)->Arg(16384)->Arg(1 << 20);

void
BM_Crc32Line(benchmark::State &state)
{
    Rng rng(1);
    std::vector<u8> line(64);
    for (auto &b : line)
        b = static_cast<u8>(rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(Crc32::lineCrc(0x1234, line));
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Crc32Line);

void
BM_SampleLifetime(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    FaultInjector inj(cfg);
    // As MonteCarlo::runRange: a counter-derived Rng per lifetime and
    // one reused fault vector.
    std::vector<Fault> events;
    u64 t = 0;
    for (auto _ : state) {
        Rng rng(mix64(++t));
        inj.sampleLifetime(rng, events);
        benchmark::DoNotOptimize(events.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_SampleLifetime);

void
BM_SampleLifetimeLanes(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    FaultInjector inj(cfg);
    // As MonteCarlo::runRange: kLanes counter-derived Rngs per call
    // to the lane sampler and kLanes reused fault vectors.
    std::array<std::vector<Fault>, FaultInjector::kLanes> events;
    std::array<Rng, FaultInjector::kLanes> rngs;
    u64 t = 0;
    for (auto _ : state) {
        for (Rng &rng : rngs)
            rng = Rng(mix64(++t));
        inj.sampleLifetime(rngs, events);
        benchmark::DoNotOptimize(events.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * FaultInjector::kLanes);
    state.SetLabel(zeroScanOps().path);
}
BENCHMARK(BM_SampleLifetimeLanes);

void
BM_ZeroScan(benchmark::State &state)
{
    // The resolved zero-cell scan alone over one lifetime's 182 cells
    // at the paper's rates (FaultInjector's cell order and zeroMax:
    // per stack, each die's [Bit, Word, Column, Row, Bank] x
    // {transient, permanent} cells, then the TSV cell at 1430 FIT). A
    // hit restarts the scan past its cell without sampling faults.
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    auto zeroMax = [&](double fit) {
        return Rng::unitThreshold(
            std::exp(-fitToPerHour(fit) * cfg.lifetimeHours));
    };
    const FitTable &r = cfg.rates;
    std::vector<u64> cells;
    for (u32 s = 0; s < cfg.geom.stacks; ++s) {
        for (u32 die = 0; die < cfg.diesPerStack(); ++die)
            for (const FitPair *p : {&r.bit, &r.word, &r.column, &r.row,
                                     &r.bank}) {
                cells.push_back(zeroMax(p->transientFit));
                cells.push_back(zeroMax(p->permanentFit));
            }
        cells.push_back(zeroMax(cfg.tsvDeviceFit));
    }
    const u32 n = static_cast<u32>(cells.size());
    const ZeroScanOps &ops = zeroScanOps();
    RngLanes lanes;
    for (unsigned l = 0; l < RngLanes::kLanes; ++l)
        lanes.load(l, Rng(mix64(l + 1)));
    ZeroScanHit hit;
    for (auto _ : state) {
        for (u32 i = 0; i < n; ++i)
            i += ops.scan(lanes, cells.data() + i, n - i, hit);
        benchmark::DoNotOptimize(lanes.s);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * RngLanes::kLanes);
    state.SetLabel(ops.path);
}
BENCHMARK(BM_ZeroScan);

/** One draw-byte fill entry over a tiny() engine's 96 KiB data image;
 *  main() registers one per entry this host runs, named by its path. */
void
BM_FillDrawBytes(benchmark::State &state, const FillDrawBytesOps *ops)
{
    std::vector<u8> image(96 * 1024);
    Rng rng(42);
    for (auto _ : state) {
        ops->fill(rng, image.data(), image.size());
        benchmark::DoNotOptimize(image.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(image.size()));
}

void
BM_MonteCarloTrialCitadel(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    MonteCarlo mc(cfg);
    auto scheme = makeCitadel();
    FaultInjector inj(cfg);
    Rng rng(5);
    const auto events = inj.sampleLifetime(rng);
    std::vector<Fault> active;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mc.runTrial(*scheme, events, nullptr, active));
}
BENCHMARK(BM_MonteCarloTrialCitadel);

void
BM_MonteCarloFullRun(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    MonteCarlo mc(cfg);
    auto scheme = makeCitadel();
    const u64 trials = static_cast<u64>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(mc.run(*scheme, trials, 7));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trials));
}
BENCHMARK(BM_MonteCarloFullRun)->Arg(1000);

// Times the whole-model reconstruction only: the full rebuild between
// iterations (restore + corrupt) is paused.
void
BM_ParityEngineReconstructRow(benchmark::State &state)
{
    ParityEngine eng(StackGeometry::tiny());
    Fault f;
    f.cls = FaultClass::Row;
    f.stack = DimSpec::exact(0);
    f.channel = DimSpec::exact(1);
    f.bank = DimSpec::exact(1);
    f.row = DimSpec::exact(5);
    f.col = DimSpec::wild();
    f.bit = DimSpec::wild();
    for (auto _ : state) {
        state.PauseTiming();
        eng.restore();
        eng.corrupt({f});
        state.ResumeTiming();
        benchmark::DoNotOptimize(eng.reconstruct(3));
    }
}
BENCHMARK(BM_ParityEngineReconstructRow);

// The live datapath's engine work per corrected demand read on an aged
// device: correct the line, rebuild the unchanged fault set (which
// undoes the fix) and re-check it (peelable). Nothing is paused. The
// bank fault has no spare to go to, so every read walks a different
// line of it.
void
BM_ParityEngineCorrectedRead(benchmark::State &state)
{
    const StackGeometry geom = StackGeometry::tiny();
    ParityEngine eng(geom);
    Fault f;
    f.cls = FaultClass::Bank;
    f.stack = DimSpec::exact(0);
    f.channel = DimSpec::exact(1);
    f.bank = DimSpec::exact(1);
    f.row = DimSpec::wild();
    f.col = DimSpec::wild();
    f.bit = DimSpec::wild();
    const std::vector<Fault> faults{f};
    eng.rebuild(faults);
    u32 line = 0;
    for (auto _ : state) {
        const RowId row{line / geom.linesPerRow() % geom.rowsPerBank};
        const ColId col{line % geom.linesPerRow()};
        benchmark::DoNotOptimize(
            eng.correctLine(DieId{1}, BankId{1}, row, col, 3));
        eng.rebuild(faults);
        benchmark::DoNotOptimize(eng.peelable(3));
        ++line;
    }
}
BENCHMARK(BM_ParityEngineCorrectedRead);

/** The whole ParityEngine constructor on tiny(), as each live RAS
 *  datapath pays it: data image, parity, per-line CRCs and the copy. */
void
BM_ParityEngineCtor(benchmark::State &state)
{
    u64 seed = 42;
    for (auto _ : state) {
        ParityEngine eng(StackGeometry::tiny(), seed++);
        benchmark::DoNotOptimize(eng);
    }
    state.SetLabel(fillDrawBytesOps().path);
}
BENCHMARK(BM_ParityEngineCtor)->Unit(benchmark::kMicrosecond);

void
BM_LlcFillProbe(benchmark::State &state)
{
    Llc llc(8ull << 20, 8);
    Rng rng(6);
    u64 addr = 0;
    for (auto _ : state) {
        const bool dirty = (addr & 3) == 0;
        llc.fill(LineAddr{addr}, dirty, false);
        ++addr;
        benchmark::DoNotOptimize(llc.probeParity(LineAddr{rng.below(1 << 20)}));
    }
}
BENCHMARK(BM_LlcFillProbe);

/** One default-config SystemSim: mostly the 8MB LLC's warm-up, two
 *  capacities of lbm stream lines. */
void
BM_SystemSimCtor(benchmark::State &state)
{
    const SimConfig cfg;
    const BenchmarkProfile &lbm = findBenchmark("lbm");
    for (auto _ : state) {
        SystemSim sim(cfg, lbm);
        benchmark::DoNotOptimize(&sim);
    }
}
BENCHMARK(BM_SystemSimCtor)->Unit(benchmark::kMillisecond);

/** SystemSim::run() alone at the perfbench timing suite's per-profile
 *  config (Same-Bank, cached 3DP parity, 100k instructions per core):
 *  cores, LLC and the FR-FCFS memory scheduler. Each iteration builds
 *  a fresh simulator with the timer paused. */
void
BM_SystemSimRun(benchmark::State &state, const char *profile)
{
    SimConfig cfg;
    cfg.ras = RasTraffic::ThreeDPCached;
    cfg.insnsPerCore = 100'000;
    const BenchmarkProfile &p = findBenchmark(profile);
    for (auto _ : state) {
        state.PauseTiming();
        SystemSim sim(cfg, p);
        state.ResumeTiming();
        benchmark::DoNotOptimize(sim.run());
    }
}
BENCHMARK_CAPTURE(BM_SystemSimRun, mcf, "mcf")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SystemSimRun, lbm, "lbm")
    ->Unit(benchmark::kMillisecond);

/** FleetCampaign::run() alone: FleetConfig::demo()'s eight servers
 *  under a zipf-0.9 trace with load rebalance on, so the client op
 *  table, the coordinator's per-key load counts and its hot-key picks
 *  all run. Each iteration builds a fresh campaign with the timer
 *  paused. */
void
BM_FleetCampaignRun(benchmark::State &state)
{
    fleet::FleetConfig cfg = fleet::FleetConfig::demo();
    cfg.traffic = "ticks=2048,rate=32,write=0.2,zipf=0.9";
    cfg.coord.rebalanceEnabled = true;
    cfg.threads = 1;
    for (auto _ : state) {
        state.PauseTiming();
        fleet::FleetCampaign campaign(cfg);
        state.ResumeTiming();
        benchmark::DoNotOptimize(campaign.run());
    }
}
BENCHMARK(BM_FleetCampaignRun)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace citadel

int
main(int argc, char **argv)
{
    for (const citadel::FillDrawBytesOps &ops :
         citadel::fillDrawBytesEntries())
        benchmark::RegisterBenchmark(
            (std::string("BM_FillDrawBytes/") + ops.path).c_str(),
            citadel::BM_FillDrawBytes, &ops)
            ->Unit(benchmark::kMicrosecond);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
