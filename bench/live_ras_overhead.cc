/**
 * @file
 * Overhead of the live RAS datapath: run the same workload slice with
 * (a) no datapath, (b) the datapath attached but fault-free, (c) a
 * demand-corrected row fault, (d) an unspared bank fault that
 * re-corrects on every access (DDS disabled — worst case), and (e) an
 * uncorrectable triple-bank pattern. Reports cycles, slowdown vs (a),
 * RAS-purposed reads and the CE/DUE totals, quantifying what
 * demand-time correction costs the running system (Section VI-B).
 */

#include <iostream>

#include "bench_util.h"
#include "ras/live_datapath.h"

using namespace citadel;
using namespace citadel::bench;

namespace {

SimConfig
baseConfig(u64 insns_per_core)
{
    SimConfig cfg;
    cfg.geom = StackGeometry::tiny();
    cfg.llcBytes = 1 << 14;
    cfg.cores = 2;
    cfg.insnsPerCore = insns_per_core;
    cfg.ras = RasTraffic::ThreeDPCached;
    cfg.seed = 9;
    return cfg;
}

Fault
makeBankFault(u32 ch, u32 bank)
{
    Fault f;
    f.cls = FaultClass::Bank;
    f.stack = DimSpec::exact(0);
    f.channel = DimSpec::exact(ch);
    f.bank = DimSpec::exact(bank);
    return f;
}

Fault
makeRowFault(u32 ch, u32 bank, u32 row)
{
    Fault f;
    f.cls = FaultClass::Row;
    f.stack = DimSpec::exact(0);
    f.channel = DimSpec::exact(ch);
    f.bank = DimSpec::exact(bank);
    f.row = DimSpec::exact(row);
    return f;
}

} // namespace

int
main()
{
    const u64 n = knobU64(Knob::Insns, 30'000);
    printBanner(std::cout,
                "Live RAS datapath overhead (tiny geometry, " +
                    std::to_string(n) + " insns/core)");

    const SimConfig cfg = baseConfig(n);
    const BenchmarkProfile &wl = findBenchmark("mcf");

    struct Scenario
    {
        const char *name;
        bool attach;
        bool dds;
        std::vector<Fault> faults;
    };
    const Scenario scenarios[] = {
        {"no datapath", false, true, {}},
        {"attached, fault-free", true, true, {}},
        {"row fault (CE + spare)", true, true, {makeRowFault(0, 0, 5)}},
        {"bank fault, no DDS (re-correct)",
         true,
         false,
         {makeBankFault(0, 0)}},
        {"triple-bank (DUE)",
         true,
         true,
         {makeBankFault(0, 0), makeBankFault(0, 1), makeBankFault(1, 0)}},
    };

    u64 base_cycles = 0;
    Table t({"scenario", "cycles", "slowdown", "rasReads", "CE", "DUE",
             "groupReads"});
    for (const Scenario &s : scenarios) {
        LiveRasOptions opts;
        opts.scheme.enableDds = s.dds;
        LiveRasDatapath dp(cfg, opts);
        for (const Fault &f : s.faults)
            dp.scheduleFault(f, 500);

        SystemSim sim(cfg, wl);
        if (s.attach)
            sim.attachRas(&dp);
        const SimResult res = sim.run();
        if (base_cycles == 0)
            base_cycles = res.cycles;

        const RasCounters &c = dp.counters();
        t.addRow({s.name, Table::num(static_cast<double>(res.cycles), 0),
                  Table::num(static_cast<double>(res.cycles) /
                                 static_cast<double>(base_cycles),
                             3) +
                      "x",
                  Table::num(static_cast<double>(res.mem.rasReads), 0),
                  Table::num(static_cast<double>(c.ce), 0),
                  Table::num(static_cast<double>(c.due), 0),
                  Table::num(static_cast<double>(c.parityGroupReads), 0)});
    }
    t.print(std::cout);

    std::cout << "\nExpectation: the fault-free datapath is ~free; the "
                 "unspared bank fault pays\nthe full demand-time "
                 "correction latency on every hit (what DDS exists to "
                 "remove);\nDUEs cost a retry but never block "
                 "completion.\n";
    return 0;
}
