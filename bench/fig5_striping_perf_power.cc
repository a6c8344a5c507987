/**
 * @file
 * Figure 5: the cost of data striping. Runs the 38-benchmark suite in
 * rate mode under the three mappings and reports normalized execution
 * time and normalized active power (geometric means), as in the
 * paper's summary bars: Across-Banks ~1.10x time / ~4.7x power,
 * Across-Channels ~1.25x time / ~3.8x power.
 */

#include <iostream>

#include "bench_util.h"

using namespace citadel;
using namespace citadel::bench;

int
main()
{
    const u64 n = knobU64(Knob::Insns);
    printBanner(std::cout, "Figure 5: striping performance/power (" +
                               std::to_string(n) + " insns/core)");

    const auto base =
        runSuiteParallel(StripingMode::SameBank, RasTraffic::None, n);
    const auto ab =
        runSuiteParallel(StripingMode::AcrossBanks, RasTraffic::None, n);
    const auto ac =
        runSuiteParallel(StripingMode::AcrossChannels, RasTraffic::None, n);

    auto cycles = [](const SimResult &r) {
        return static_cast<double>(r.cycles);
    };
    auto power = [](const SimResult &r) { return r.power.totalW(); };

    Table t({"mapping", "norm. exec time (gmean)", "paper",
             "norm. active power (gmean)", "paper"});
    t.addRow({"Same-Bank", "1.000", "1.00", "1.000", "1.0"});
    t.addRow({"Across-Banks", Table::num(gmeanRatio(ab, base, cycles), 3),
              "~1.10", Table::num(gmeanRatio(ab, base, power), 3),
              "~4.7"});
    t.addRow({"Across-Channels",
              Table::num(gmeanRatio(ac, base, cycles), 3), "~1.25",
              Table::num(gmeanRatio(ac, base, power), 3), "~3.8"});
    t.print(std::cout);

    // Memory-intensive subset (the paper's power numbers are dominated
    // by benchmarks that actually exercise DRAM).
    std::vector<double> ab_t;
    std::vector<double> ac_t;
    std::vector<double> ab_p;
    std::vector<double> ac_p;
    for (const auto &b : allBenchmarks()) {
        if (b.mpki < 5.0)
            continue;
        ab_t.push_back(cycles(ab.at(b.name)) / cycles(base.at(b.name)));
        ac_t.push_back(cycles(ac.at(b.name)) / cycles(base.at(b.name)));
        ab_p.push_back(power(ab.at(b.name)) / power(base.at(b.name)));
        ac_p.push_back(power(ac.at(b.name)) / power(base.at(b.name)));
    }
    std::cout << "\nMemory-intensive subset (MPKI >= 5):\n"
              << "  Across-Banks    time " << Table::num(geomean(ab_t), 3)
              << "  power " << Table::num(geomean(ab_p), 3) << "\n"
              << "  Across-Channels time " << Table::num(geomean(ac_t), 3)
              << "  power " << Table::num(geomean(ac_p), 3) << "\n";
    return 0;
}
