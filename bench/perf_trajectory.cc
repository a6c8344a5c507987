/**
 * @file
 * Perf-trajectory harness: times the three hot paths this repo's
 * throughput hangs on and emits machine-readable BENCH_mc.json so
 * future PRs have a baseline to compare against.
 *
 *  1. Monte Carlo trials/s, serial (1 thread) vs parallel
 *     (CITADEL_THREADS / hardware_concurrency), full Citadel scheme at
 *     the pessimistic TSV rate. The two runs must be bit-identical —
 *     this binary exits non-zero on any mismatch, which is what the
 *     perf-smoke CI job asserts.
 *  2. CRC-32 MB/s: slice-by-8 production path vs the one-table
 *     byte-at-a-time baseline.
 *  3. Parity-fold MB/s: word-wide xorFold vs a byte-loop oracle.
 *  4. Dispatched kernels (schema v4): the SIMD xorFold/xorFoldN paths
 *     and the hardware CRC path vs their scalar proofs, at an
 *     L1-resident size (where the kernel dominates) and a streaming
 *     size (where DRAM bandwidth does), plus batched vs unbatched
 *     trial execution in Ktrials/s. Every variant is byte-compared
 *     against its scalar oracle before being timed.
 *  5. Timing simulator: cycles simulated/s under cycle vs event
 *     stepping (low-MPKI and high-MPKI profiles), and suite wall time
 *     serial (runSuite) vs parallel (runSuiteParallel). Every pair
 *     must be bit-identical; any divergence makes this binary exit
 *     non-zero, which is what the perf-smoke CI job asserts.
 *  6. Fleet serving hot path (schema v5): campaign Kops/s over
 *     unbatched loopback (batch 1), batched loopback, and real
 *     socketpairs, at a production-shaped arrival rate, plus
 *     acked-completion latency percentiles in virtual ticks. All
 *     three cells must land on the same campaign fingerprint; any
 *     divergence makes this binary exit non-zero.
 *  7. Fleet elasticity (schema v6): an elastic chaos campaign —
 *     crashes and stall-evictions followed by derived restarts, warm
 *     fills, CRC-checked admissions, and load-driven hot-shard
 *     migration under zipf skew — reporting warm-fill throughput
 *     (records/s), join and rebalance counts, and the
 *     checkpoint/resume proof: the campaign is cut mid-run,
 *     checkpointed, resumed into a fresh instance, and must land on
 *     the uninterrupted run's exact fingerprint. Any resume
 *     divergence makes this binary exit non-zero.
 *
 * The parallel-scaling check is enforced only when the machine
 * actually has the cores the run requested; on constrained runners
 * (hardware_concurrency < requested threads) it downgrades to a
 * warning while still emitting the fields, so CI does not gate on
 * oversubscription noise.
 *
 * Knobs: CITADEL_TRIALS (default 20000), CITADEL_INSNS (default
 * 100000), CITADEL_THREADS, CITADEL_BENCH_JSON (output path, default
 * ./BENCH_mc.json).
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/kernels.h"
#include "fleet_bench_util.h"
#include "common/thread_pool.h"
#include "common/xor_fold.h"
#include "ecc/crc32.h"
#include "faults/fault_arena.h"

using namespace citadel;
using namespace citadel::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
identical(const McResult &a, const McResult &b)
{
    return a.trials == b.trials && a.failures == b.failures &&
           a.failuresByYear == b.failuresByYear &&
           a.failuresByClass == b.failuresByClass &&
           a.meanFaultsPerTrial == b.meanFaultsPerTrial;
}

/** Throughput of one CRC kernel over `buf`, in MB/s. */
template <typename Kernel>
double
crcMbPerS(const std::vector<u8> &buf, u64 passes, Kernel kernel)
{
    u32 sink = Crc32::begin();
    const double mbps = benchKernel(passes, buf.size(), [&] {
        sink = kernel(sink, buf);
        asm volatile("" : "+r"(sink));
    });
    return mbps;
}

/**
 * The byte-at-a-time fold baseline. Kept out of line with
 * auto-vectorization disabled: inlined into the timing loop the
 * optimizer either SIMD-vectorizes it (measuring the compiler, not the
 * kernel) or collapses the repeated self-inverse passes outright.
 */
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
__attribute__((noinline)) void
foldBytewise(u8 *dst, const u8 *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<u8>(dst[i] ^ src[i]);
}

/** Out-of-line wrapper so both fold kernels are timed the same way. */
__attribute__((noinline)) void
foldWordwise(u8 *dst, const u8 *src, std::size_t n)
{
    xorFold(dst, src, n);
}

/** MB/s of one fold kernel; a barrier keeps every pass observable. */
double
foldMbPerS(std::vector<u8> &acc, const std::vector<u8> &src, u64 passes,
           void (*kernel)(u8 *, const u8 *, std::size_t))
{
    return benchKernel(passes, src.size(), [&] {
        kernel(acc.data(), src.data(), src.size());
    });
}

std::vector<u8>
randomBuf(std::size_t n, Rng &rng)
{
    std::vector<u8> buf(n);
    for (auto &b : buf)
        b = static_cast<u8>(rng.next());
    return buf;
}

} // namespace

int
main()
{
    const u64 n = trials(20000);
    const unsigned nthreads = citadelThreads();
    printBanner(std::cout,
                "Perf trajectory (" + std::to_string(n) + " trials, " +
                    std::to_string(nthreads) + " threads)");

    // ---- 1. Monte Carlo throughput, serial vs parallel -------------
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    MonteCarlo mc(cfg);
    auto scheme = makeCitadel();

    auto t0 = std::chrono::steady_clock::now();
    const McResult serial = mc.run(*scheme, n, 7, 1);
    const double serial_s = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    const McResult parallel = mc.run(*scheme, n, 7, nthreads);
    const double parallel_s = secondsSince(t0);

    const bool match = identical(serial, parallel);
    const double serial_tps = static_cast<double>(n) / serial_s;
    const double parallel_tps = static_cast<double>(n) / parallel_s;

    Table mc_table({"engine", "trials/s", "speedup", "P(fail)"});
    mc_table.addRow({"serial (1 thread)", Table::num(serial_tps, 0),
                     "1.0x", probCell(serial.probFail())});
    mc_table.addRow({"parallel (" + std::to_string(nthreads) + " threads)",
                     Table::num(parallel_tps, 0),
                     Table::num(parallel_tps / serial_tps, 2) + "x",
                     probCell(parallel.probFail())});
    mc_table.print(std::cout);
    const double mc_speedup = parallel_tps / serial_tps;
    const double mc_efficiency =
        mc_speedup / static_cast<double>(nthreads);
    // The efficiency gate only means something when the machine has
    // the cores the run asked for; oversubscribed runners measure
    // scheduler noise, not scaling.
    const unsigned hw_threads = std::thread::hardware_concurrency();
    const bool scaling_enforced = hw_threads >= nthreads;
    constexpr double kMinEfficiency = 0.35;
    const bool scaling_ok =
        nthreads <= 1 || mc_efficiency >= kMinEfficiency;
    std::cout << "bit-identical: " << (match ? "yes" : "NO — BUG")
              << " | scaling efficiency "
              << Table::num(mc_efficiency * 100.0, 0) << "% of linear on "
              << nthreads << " threads\n";
    if (!scaling_enforced)
        std::cout << "note: scaling check downgraded to warning ("
                  << hw_threads << " hardware threads < " << nthreads
                  << " requested)\n";
    else if (!scaling_ok)
        std::cout << "WARNING: scaling efficiency below "
                  << Table::num(kMinEfficiency * 100.0, 0)
                  << "% floor — will fail\n";
    std::cout << "\n";

    // ---- 2. CRC-32 MB/s: slice-by-8 vs byte-at-a-time --------------
    Rng rng(99);
    std::vector<u8> buf(1 << 20);
    for (auto &b : buf)
        b = static_cast<u8>(rng.next());
    const u64 passes = std::max<u64>(1, envU64("CITADEL_CRC_PASSES", 64));

    // Explicitly the slice8 kernel: the production Crc32::update now
    // dispatches to the hardware path, which section 4 reports.
    const double crc_slice8 =
        crcMbPerS(buf, passes, [](u32 s, const std::vector<u8> &d) {
            return Crc32::updateSlice8(s, d);
        });
    const double crc_byte =
        crcMbPerS(buf, passes, [](u32 s, const std::vector<u8> &d) {
            return Crc32::updateBytewise(s, d);
        });

    Table crc_table({"CRC-32 kernel", "MB/s", "speedup"});
    crc_table.addRow({"slice-by-8", Table::num(crc_slice8, 0),
                      Table::num(crc_slice8 / crc_byte, 2) + "x"});
    crc_table.addRow({"byte-at-a-time", Table::num(crc_byte, 0), "1.0x"});
    crc_table.print(std::cout);
    std::cout << "\n";

    // ---- 3. Parity fold MB/s: word-wide vs byte loop ---------------
    std::vector<u8> acc(1 << 20);
    for (auto &b : acc)
        b = static_cast<u8>(rng.next());
    const u64 fold_passes =
        std::max<u64>(1, envU64("CITADEL_FOLD_PASSES", 256));

    const double fold_word =
        foldMbPerS(acc, buf, fold_passes, foldWordwise);
    const double fold_byte =
        foldMbPerS(acc, buf, fold_passes, foldBytewise);

    Table fold_table({"parity XOR kernel", "MB/s", "speedup"});
    fold_table.addRow({"word-wide (u64)", Table::num(fold_word, 0),
                       Table::num(fold_word / fold_byte, 2) + "x"});
    fold_table.addRow({"byte loop", Table::num(fold_byte, 0), "1.0x"});
    fold_table.print(std::cout);
    std::cout << "\n";

    // ---- 4. Dispatched kernels: SIMD fold + hw CRC + batching ------
    // L1-resident buffers isolate the kernel (the streaming numbers
    // above are DRAM-bandwidth-bound, where every fold implementation
    // converges); each dispatched variant is byte-compared against
    // its scalar proof before it is timed.
    constexpr std::size_t kL1Bytes = 16384;
    constexpr std::size_t kFoldK = 8;
    const u64 l1_passes =
        std::max<u64>(1, envU64("CITADEL_L1_PASSES", 1 << 16));
    bool kernels_identical = true;
    // Best of three reps: L1-resident measurements finish in tens of
    // ms, where one descheduling on a shared runner can halve a
    // single-rep number.
    const auto bestOf3 = [](auto &&measure) {
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep)
            best = std::max(best, measure());
        return best;
    };

    std::vector<u8> l1_src = randomBuf(kL1Bytes, rng);
    std::vector<u8> l1_acc_a = randomBuf(kL1Bytes, rng);
    std::vector<u8> l1_acc_b = l1_acc_a;

    // xorFold: scalar proof vs dispatched path.
    xorFoldScalar(l1_acc_a.data(), l1_src.data(), kL1Bytes);
    xorKernelOps().fold(l1_acc_b.data(), l1_src.data(), kL1Bytes);
    kernels_identical = kernels_identical && l1_acc_a == l1_acc_b;

    const double xf_scalar_l1 = bestOf3([&] {
        return benchKernel(l1_passes, kL1Bytes, [&] {
            xorFoldScalar(l1_acc_a.data(), l1_src.data(), kL1Bytes);
        });
    });
    const double xf_disp_l1 = bestOf3([&] {
        return benchKernel(l1_passes, kL1Bytes, [&] {
            xorKernelOps().fold(l1_acc_b.data(), l1_src.data(),
                                kL1Bytes);
        });
    });
    const double xf_disp_stream =
        foldMbPerS(acc, buf, fold_passes, [](u8 *d, const u8 *s,
                                             std::size_t n) {
            xorKernelOps().fold(d, s, n);
        });

    // xorFoldN: k lines folded in one pass vs k scalar passes.
    std::vector<std::vector<u8>> fold_lines;
    std::vector<const u8 *> fold_srcs;
    for (std::size_t i = 0; i < kFoldK; ++i) {
        fold_lines.push_back(randomBuf(kL1Bytes, rng));
        fold_srcs.push_back(fold_lines.back().data());
    }
    l1_acc_b = l1_acc_a;
    xorFoldNScalar(l1_acc_a.data(), fold_srcs.data(), kFoldK, kL1Bytes);
    xorKernelOps().foldN(l1_acc_b.data(), fold_srcs.data(), kFoldK,
                         kL1Bytes);
    kernels_identical = kernels_identical && l1_acc_a == l1_acc_b;

    const u64 foldn_passes = std::max<u64>(1, l1_passes / kFoldK);
    const double xfn_scalar = bestOf3([&] {
        return benchKernel(foldn_passes, kL1Bytes * kFoldK, [&] {
            xorFoldNScalar(l1_acc_a.data(), fold_srcs.data(), kFoldK,
                           kL1Bytes);
        });
    });
    const double xfn_disp = bestOf3([&] {
        return benchKernel(foldn_passes, kL1Bytes * kFoldK, [&] {
            xorKernelOps().foldN(l1_acc_b.data(), fold_srcs.data(),
                                 kFoldK, kL1Bytes);
        });
    });

    // CRC-32: hardware folding vs slice8, same L1/stream split.
    kernels_identical =
        kernels_identical &&
        Crc32::updateHw(Crc32::begin(), l1_src) ==
            Crc32::updateSlice8(Crc32::begin(), l1_src) &&
        Crc32::updateHw(Crc32::begin(), buf) ==
            Crc32::updateSlice8(Crc32::begin(), buf);

    const double crc_slice8_l1 = bestOf3([&] {
        return crcMbPerS(l1_src, l1_passes,
                         [](u32 s, const std::vector<u8> &d) {
                             return Crc32::updateSlice8(s, d);
                         });
    });
    const double crc_hw_l1 = bestOf3([&] {
        return crcMbPerS(l1_src, l1_passes,
                         [](u32 s, const std::vector<u8> &d) {
                             return Crc32::updateHw(s, d);
                         });
    });
    const double crc_hw_stream =
        crcMbPerS(buf, passes, [](u32 s, const std::vector<u8> &d) {
            return Crc32::updateHw(s, d);
        });

    Table kern_table({"kernel", "path", "L1 MB/s", "stream MB/s",
                      "speedup"});
    kern_table.addRow({"xorFold scalar", "scalar-u64",
                       Table::num(xf_scalar_l1, 0),
                       Table::num(fold_word, 0), "1.0x"});
    kern_table.addRow({"xorFold dispatched", xorKernelOps().path,
                       Table::num(xf_disp_l1, 0),
                       Table::num(xf_disp_stream, 0),
                       Table::num(xf_disp_l1 / xf_scalar_l1, 2) + "x"});
    kern_table.addRow({"xorFoldN k=8 scalar", "scalar-u64",
                       Table::num(xfn_scalar, 0), "-", "1.0x"});
    kern_table.addRow({"xorFoldN k=8 dispatched", xorKernelOps().path,
                       Table::num(xfn_disp, 0), "-",
                       Table::num(xfn_disp / xfn_scalar, 2) + "x"});
    kern_table.addRow({"crc32 slice8", "slice8",
                       Table::num(crc_slice8_l1, 0),
                       Table::num(crc_slice8, 0), "1.0x"});
    kern_table.addRow({"crc32 hw", Crc32::activePathName(),
                       Table::num(crc_hw_l1, 0),
                       Table::num(crc_hw_stream, 0),
                       Table::num(crc_hw_l1 / crc_slice8_l1, 2) + "x"});
    kern_table.print(std::cout);
    std::cout << "kernel outputs bit-identical to scalar proofs: "
              << (kernels_identical ? "yes" : "NO — BUG") << "\n\n";

    // Batched (FaultArena two-phase) vs unbatched (legacy per-trial
    // sample+execute) trial throughput, in Ktrials/s, timed
    // back-to-back so both run with warm caches (section 1's serial
    // number is a cold first run and would bias this comparison). The
    // unbatched loop replays the exact legacy control flow, so its
    // failure count doubles as an end-to-end batching-equivalence
    // check against the batched rerun.
    const u64 kSeedMix = 0xA24BAED4963EE407ull;
    FaultInjector inj(cfg);
    auto scheme_ub = makeCitadel();
    std::vector<Fault> ub_events;
    std::vector<Fault> ub_active;
    u64 ub_failures = 0;
    double unbatched_s = 1e300;
    double batched_s = 1e300;
    McResult batched_rerun;
    // Best of two reps per variant: a single rep on a shared runner is
    // scheduler-noise-dominated at these (tens of ms) durations.
    for (int rep = 0; rep < 2; ++rep) {
        ub_failures = 0;
        t0 = std::chrono::steady_clock::now();
        for (u64 t = 0; t < n; ++t) {
            Rng trial_rng(7 ^ (kSeedMix * (t + 1)));
            inj.sampleLifetime(trial_rng, ub_events);
            FaultClass trig = FaultClass::Bit;
            if (mc.runTrial(*scheme_ub, ub_events, &trig, ub_active) >=
                0.0)
                ++ub_failures;
        }
        unbatched_s = std::min(unbatched_s, secondsSince(t0));

        t0 = std::chrono::steady_clock::now();
        batched_rerun = mc.run(*scheme, n, 7, 1);
        batched_s = std::min(batched_s, secondsSince(t0));
    }

    const double unbatched_ktps =
        static_cast<double>(n) / unbatched_s / 1e3;
    const double batched_ktps = static_cast<double>(n) / batched_s / 1e3;
    const bool batch_identical = ub_failures == batched_rerun.failures &&
                                 identical(batched_rerun, serial);
    kernels_identical = kernels_identical && batch_identical;

    Table trial_table({"trial execution", "Ktrials/s", "speedup",
                       "identical"});
    trial_table.addRow({"unbatched (legacy)",
                        Table::num(unbatched_ktps, 1), "1.0x", "-"});
    trial_table.addRow({"batched (FaultArena)",
                        Table::num(batched_ktps, 1),
                        Table::num(batched_ktps / unbatched_ktps, 2) +
                            "x",
                        batch_identical ? "yes" : "NO — BUG"});
    trial_table.print(std::cout);
    std::cout << "\n";

    // ---- 5. Timing simulator: stepping + suite parallelism ---------
    const u64 sim_insns = insns(100000);
    bool sim_identical = true;

    // Cycle vs event stepping on a low-MPKI (idle-heavy, where the
    // skipping pays off) and a high-MPKI (memory-bound floor) profile.
    // Only run() is timed -- LLC warm-up in the constructor is common
    // to both modes and would wash the ratio out at small budgets.
    struct SteppingPoint
    {
        const char *bench;
        RasTraffic ras;
        double cycle_cps = 0;
        double event_cps = 0;
        bool identical = false;
    };
    std::vector<SteppingPoint> points = {
        {"povray", RasTraffic::None},        // idle-heavy
        {"mcf", RasTraffic::ThreeDPCached},  // memory-bound
    };
    for (SteppingPoint &p : points) {
        const BenchmarkProfile &prof = findBenchmark(p.bench);
        SimResult rc, re;
        for (const SimStepping stepping :
             {SimStepping::Cycle, SimStepping::Event}) {
            SimConfig cfg;
            cfg.ras = p.ras;
            cfg.insnsPerCore = sim_insns;
            cfg.stepping = stepping;
            SystemSim sim(cfg, prof);
            t0 = std::chrono::steady_clock::now();
            const SimResult r = sim.run();
            const double dt = secondsSince(t0);
            if (stepping == SimStepping::Cycle) {
                rc = r;
                p.cycle_cps = static_cast<double>(r.cycles) / dt;
            } else {
                re = r;
                p.event_cps = static_cast<double>(r.cycles) / dt;
            }
        }
        p.identical = identicalResults(rc, re);
        sim_identical = sim_identical && p.identical;
    }

    Table step_table(
        {"benchmark", "cycle cps", "event cps", "speedup", "identical"});
    for (const SteppingPoint &p : points)
        step_table.addRow({p.bench, Table::num(p.cycle_cps, 0),
                           Table::num(p.event_cps, 0),
                           Table::num(p.event_cps / p.cycle_cps, 2) + "x",
                           p.identical ? "yes" : "NO — BUG"});
    step_table.print(std::cout);
    std::cout << "\n";

    // Suite wall time, serial vs parallel, same thread budget as MC.
    t0 = std::chrono::steady_clock::now();
    const auto suite_serial =
        runSuite(StripingMode::SameBank, RasTraffic::ThreeDPCached,
                 sim_insns, /*verbose=*/false);
    const double suite_serial_s = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    const auto suite_parallel = runSuiteParallel(
        StripingMode::SameBank, RasTraffic::ThreeDPCached, sim_insns,
        nthreads);
    const double suite_parallel_s = secondsSince(t0);

    bool suite_identical = suite_serial.size() == suite_parallel.size();
    for (const auto &[name, r] : suite_serial)
        suite_identical = suite_identical &&
                          suite_parallel.count(name) &&
                          identicalResults(r, suite_parallel.at(name));
    sim_identical = sim_identical && suite_identical;

    Table suite_table({"suite runner", "wall s", "speedup", "identical"});
    suite_table.addRow({"serial", Table::num(suite_serial_s, 2), "1.0x",
                        "-"});
    suite_table.addRow(
        {"parallel (" + std::to_string(nthreads) + " threads)",
         Table::num(suite_parallel_s, 2),
         Table::num(suite_serial_s / suite_parallel_s, 2) + "x",
         suite_identical ? "yes" : "NO — BUG"});
    suite_table.print(std::cout);

    std::cout << "\n";

    // ---- 6. Fleet serving hot path: wire batching ------------------
    // Production-shaped load (the per-request machinery dominates, not
    // the datapath step or the SystemSim calibration slice), min-wall
    // of two reps per cell. The batched loopback path is the serving
    // default; loopback at batch 1 is the unbatched baseline it must
    // beat, and the socket cell prices the real-descriptor transport.
    // All three must land on the same campaign fingerprint.
    fleet::FleetConfig fleet_cfg = fleet::FleetConfig::demo();
    fleet_cfg.ticks = 256;
    fleet_cfg.keySpace = 4096;
    fleet_cfg.arrivalsPerTick = 256;
    fleet_cfg.server.calibrationInsns = 0;
    fleet_cfg.threads = 1;

    struct FleetPoint
    {
        const char *name;
        fleet::TransportMode mode;
        u32 batch;
        fleet::TimedRun run;
    };
    std::vector<FleetPoint> fleet_points = {
        {"loopback b=1", fleet::TransportMode::Loopback, 1, {}},
        {"loopback b=32", fleet::TransportMode::Loopback, 32, {}},
        {"socket b=32", fleet::TransportMode::Socket, 32, {}},
    };
    for (FleetPoint &p : fleet_points) {
        fleet::FleetConfig cell = fleet_cfg;
        cell.transport = p.mode;
        cell.batch = p.batch;
        p.run = fleet::timedCampaign(cell);
        for (int rep = 1; rep < 2; ++rep) {
            const fleet::TimedRun again = fleet::timedCampaign(cell);
            if (again.seconds < p.run.seconds)
                p.run = again;
        }
    }
    const fleet::TimedRun &fl_unbatched = fleet_points[0].run;
    const fleet::TimedRun &fl_batched = fleet_points[1].run;
    const fleet::TimedRun &fl_socket = fleet_points[2].run;
    bool fleet_identical = true;
    for (const FleetPoint &p : fleet_points)
        fleet_identical =
            fleet_identical && fleet::auditClean(p.run.res) &&
            p.run.res.fingerprint == fl_unbatched.res.fingerprint;
    const double fl_unbatched_kops =
        fleet::kopsPerSec(fl_unbatched.res, fl_unbatched.seconds);
    const double fl_batched_kops =
        fleet::kopsPerSec(fl_batched.res, fl_batched.seconds);
    const double fl_socket_kops =
        fleet::kopsPerSec(fl_socket.res, fl_socket.seconds);
    const double fleet_speedup =
        fl_unbatched_kops > 0.0 ? fl_batched_kops / fl_unbatched_kops
                                : 0.0;

    Table fleet_table({"fleet transport", "Kops/s", "speedup",
                       "identical"});
    fleet_table.addRow({"loopback b=1",
                        Table::num(fl_unbatched_kops, 1), "1.0x", "-"});
    fleet_table.addRow({"loopback b=32",
                        Table::num(fl_batched_kops, 1),
                        Table::num(fleet_speedup, 2) + "x",
                        fleet_identical ? "yes" : "NO — BUG"});
    fleet_table.addRow(
        {"socket b=32", Table::num(fl_socket_kops, 1),
         Table::num(fl_socket_kops / fl_unbatched_kops, 2) + "x",
         fleet_identical ? "yes" : "NO — BUG"});
    fleet_table.print(std::cout);
    std::cout << "latency p50/p99: " << fl_batched.res.p50LatencyTicks
              << "/" << fl_batched.res.p99LatencyTicks
              << " virtual ticks\n";

    std::cout << "\n";

    // ---- 7. Fleet elasticity: join + rebalance + resume ------------
    // Full elastic chaos: crashes/stalls with derived restarts, warm
    // fills into rejoining servers, rebalance under zipf skew — then
    // the resume proof: cut mid-run, checkpoint, resume fresh, and
    // demand the uninterrupted run's exact fingerprint.
    fleet::FleetConfig el_cfg = fleet::FleetConfig::demo();
    el_cfg.traffic = "ticks=256,rate=8,write=0.5,zipf=1.2";
    el_cfg.chaos.restartAfterTicks = 64;
    el_cfg.coord.rebalanceEnabled = true;
    el_cfg.coord.minRoundLoad = 4;
    el_cfg.coord.overloadFactor = 1.25;
    el_cfg.server.calibrationInsns = 0;
    el_cfg.threads = 1;

    const fleet::TimedRun el_run = fleet::timedCampaign(el_cfg);
    const fleet::FleetCounters &el_tot = el_run.res.totals;
    const double warm_fill_per_s =
        el_run.seconds > 0.0
            ? static_cast<double>(el_tot.warmFills) / el_run.seconds
            : 0.0;
    bool all_serving = true;
    for (const fleet::ServerReport &r : el_run.res.servers)
        all_serving = all_serving && fleet::serverStateServing(r.state);

    fleet::FleetCampaign el_first(el_cfg);
    el_first.advanceTo(97);
    ByteSink el_sink;
    el_first.saveState(el_sink);
    fleet::FleetCampaign el_second(el_cfg);
    ByteSource el_src(el_sink.bytes());
    el_second.loadState(el_src);
    const fleet::FleetResult el_resumed = el_second.finish();
    const bool resume_match =
        el_resumed.fingerprint == el_run.res.fingerprint;
    const bool elastic_ok = resume_match &&
                            fleet::auditClean(el_run.res) &&
                            el_tot.serverJoins >= 1 && all_serving;

    Table elastic_table(
        {"fleet elasticity", "count", "rate", "check"});
    elastic_table.addRow(
        {"joins (warm-fill admissions)",
         Table::num(static_cast<double>(el_tot.serverJoins), 0), "-",
         el_tot.serverJoins >= 1 && all_serving ? "all serving"
                                                : "NO — BUG"});
    elastic_table.addRow(
        {"warm-fill records",
         Table::num(static_cast<double>(el_tot.warmFills), 0),
         Table::num(warm_fill_per_s / 1000.0, 1) + " Krec/s", "-"});
    elastic_table.addRow(
        {"load migrations",
         Table::num(static_cast<double>(el_tot.loadMigrations), 0),
         "-", "-"});
    elastic_table.addRow(
        {"resume fingerprint", "-", "-",
         resume_match ? "match" : "NO — BUG"});
    elastic_table.print(std::cout);

    // ---- JSON emission ---------------------------------------------
    const char *path_env = std::getenv("CITADEL_BENCH_JSON");
    const std::string path =
        path_env && *path_env ? path_env : "BENCH_mc.json";
    std::ofstream json(path);
    json << "{\n"
         << "  \"schema\": \"citadel-perf-trajectory-v6\",\n"
         << "  \"trials\": " << n << ",\n"
         << "  \"threads\": " << nthreads << ",\n"
         << "  \"hardware_concurrency\": " << hw_threads << ",\n"
         << "  \"mc\": {\n"
         << "    \"serial_trials_per_s\": " << serial_tps << ",\n"
         << "    \"parallel_trials_per_s\": " << parallel_tps << ",\n"
         << "    \"speedup\": " << mc_speedup << ",\n"
         << "    \"scaling_efficiency\": " << mc_efficiency << ",\n"
         << "    \"scaling_check\": \""
         << (scaling_enforced ? "enforced" : "warning") << "\",\n"
         << "    \"bit_identical\": " << (match ? "true" : "false")
         << "\n  },\n"
         << "  \"crc32\": {\n"
         << "    \"slice8_mb_per_s\": " << crc_slice8 << ",\n"
         << "    \"bytewise_mb_per_s\": " << crc_byte << ",\n"
         << "    \"speedup\": " << crc_slice8 / crc_byte << "\n  },\n"
         << "  \"parity_xor\": {\n"
         << "    \"word_mb_per_s\": " << fold_word << ",\n"
         << "    \"byte_mb_per_s\": " << fold_byte << ",\n"
         << "    \"speedup\": " << fold_word / fold_byte << "\n  },\n"
         << "  \"kernels\": {\n"
         << "    \"l1_bytes\": " << kL1Bytes << ",\n"
         << "    \"stream_bytes\": " << buf.size() << ",\n"
         << "    \"bit_identical\": "
         << (kernels_identical ? "true" : "false") << ",\n"
         << "    \"xor_fold\": {\n"
         << "      \"dispatch_path\": \"" << xorKernelOps().path
         << "\",\n"
         << "      \"scalar_l1_mb_per_s\": " << xf_scalar_l1 << ",\n"
         << "      \"dispatched_l1_mb_per_s\": " << xf_disp_l1 << ",\n"
         << "      \"scalar_stream_mb_per_s\": " << fold_word << ",\n"
         << "      \"dispatched_stream_mb_per_s\": " << xf_disp_stream
         << ",\n"
         << "      \"l1_speedup\": " << xf_disp_l1 / xf_scalar_l1
         << "\n    },\n"
         << "    \"xor_fold_n\": {\n"
         << "      \"dispatch_path\": \"" << xorKernelOps().path
         << "\",\n"
         << "      \"k\": " << kFoldK << ",\n"
         << "      \"scalar_mb_per_s\": " << xfn_scalar << ",\n"
         << "      \"dispatched_mb_per_s\": " << xfn_disp << ",\n"
         << "      \"speedup\": " << xfn_disp / xfn_scalar << "\n    },\n"
         << "    \"crc32\": {\n"
         << "      \"hw_path\": \"" << Crc32::activePathName() << "\",\n"
         << "      \"hw_available\": "
         << (Crc32::hwAvailable() ? "true" : "false") << ",\n"
         << "      \"slice8_l1_mb_per_s\": " << crc_slice8_l1 << ",\n"
         << "      \"hw_l1_mb_per_s\": " << crc_hw_l1 << ",\n"
         << "      \"slice8_stream_mb_per_s\": " << crc_slice8 << ",\n"
         << "      \"hw_stream_mb_per_s\": " << crc_hw_stream << ",\n"
         << "      \"l1_speedup\": " << crc_hw_l1 / crc_slice8_l1
         << "\n    },\n"
         << "    \"trial_exec\": {\n"
         << "      \"batched_ktrials_per_s\": " << batched_ktps << ",\n"
         << "      \"unbatched_ktrials_per_s\": " << unbatched_ktps
         << ",\n"
         << "      \"speedup\": " << batched_ktps / unbatched_ktps
         << ",\n"
         << "      \"bit_identical\": "
         << (batch_identical ? "true" : "false") << "\n    }\n  },\n"
         << "  \"timing\": {\n"
         << "    \"insns_per_core\": " << sim_insns << ",\n"
         << "    \"stepping\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SteppingPoint &p = points[i];
        json << "      {\"benchmark\": \"" << p.bench
             << "\", \"cycle_cps\": " << p.cycle_cps
             << ", \"event_cps\": " << p.event_cps
             << ", \"speedup\": " << p.event_cps / p.cycle_cps
             << ", \"identical\": " << (p.identical ? "true" : "false")
             << "}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    json << "    ],\n"
         << "    \"suite_serial_s\": " << suite_serial_s << ",\n"
         << "    \"suite_parallel_s\": " << suite_parallel_s << ",\n"
         << "    \"suite_speedup\": " << suite_serial_s / suite_parallel_s
         << ",\n"
         << "    \"suite_scaling_efficiency\": "
         << suite_serial_s / suite_parallel_s /
                static_cast<double>(nthreads)
         << ",\n"
         << "    \"suite_identical\": "
         << (suite_identical ? "true" : "false") << "\n  },\n"
         << "  \"fleet\": {\n"
         << "    \"ticks\": " << fleet_cfg.ticks << ",\n"
         << "    \"arrivals_per_tick\": " << fleet_cfg.arrivalsPerTick
         << ",\n"
         << "    \"batch\": " << fleet_points[1].batch << ",\n"
         << "    \"unbatched_kops_per_s\": " << fl_unbatched_kops << ",\n"
         << "    \"batched_kops_per_s\": " << fl_batched_kops << ",\n"
         << "    \"socket_kops_per_s\": " << fl_socket_kops << ",\n"
         << "    \"batched_speedup\": " << fleet_speedup << ",\n"
         << "    \"p50_latency_ticks\": "
         << fl_batched.res.p50LatencyTicks << ",\n"
         << "    \"p99_latency_ticks\": "
         << fl_batched.res.p99LatencyTicks << ",\n"
         << "    \"fingerprint_invariant\": "
         << (fleet_identical ? "true" : "false") << "\n  },\n"
         << "  \"fleet_elasticity\": {\n"
         << "    \"server_joins\": " << el_tot.serverJoins << ",\n"
         << "    \"warm_fill_records\": " << el_tot.warmFills << ",\n"
         << "    \"warm_fill_records_per_s\": " << warm_fill_per_s
         << ",\n"
         << "    \"warm_restarts\": " << el_tot.warmRestarts << ",\n"
         << "    \"load_migrations\": " << el_tot.loadMigrations
         << ",\n"
         << "    \"all_servers_serving\": "
         << (all_serving ? "true" : "false") << ",\n"
         << "    \"resume_fingerprint_match\": "
         << (resume_match ? "true" : "false") << "\n  }\n"
         << "}\n";
    json.close();
    std::cout << "\nwrote " << path << "\n";

    if (!match) {
        std::cerr << "FATAL: parallel Monte Carlo diverged from the "
                     "serial path\n";
        return 1;
    }
    if (!kernels_identical) {
        std::cerr << "FATAL: a dispatched kernel diverged from its "
                     "scalar proof\n";
        return 1;
    }
    if (!sim_identical) {
        std::cerr << "FATAL: timing simulator diverged (event stepping "
                     "or parallel suite runner)\n";
        return 1;
    }
    if (!fleet_identical) {
        std::cerr << "FATAL: a fleet transport/batch cell diverged from "
                     "unbatched loopback (fingerprint or audit)\n";
        return 1;
    }
    if (!elastic_ok) {
        std::cerr << "FATAL: fleet elasticity gate failed (checkpoint "
                     "resume divergence, unclean audit, or crashed "
                     "servers not restored to Serving)\n";
        return 1;
    }
    if (scaling_enforced && !scaling_ok) {
        std::cerr << "FATAL: parallel scaling efficiency "
                  << mc_efficiency << " below the " << kMinEfficiency
                  << " floor with " << hw_threads
                  << " hardware threads available\n";
        return 1;
    }
    return 0;
}
