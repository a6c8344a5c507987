/**
 * @file
 * Figure 15: per-benchmark normalized execution time for 3DP (with and
 * without parity caching) and the striped mappings, normalized to the
 * overhead-free Same-Bank baseline. Paper: 3DP-cached within ~1%,
 * 3DP-uncached ~4.5%, Across-Banks ~10%, Across-Channels ~25%
 * (GemsFDTD worst at 2.23x).
 */

#include <iostream>

#include "bench_util.h"

using namespace citadel;
using namespace citadel::bench;

int
main()
{
    const u64 n = knobU64(Knob::Insns);
    printBanner(std::cout, "Figure 15: normalized execution time (" +
                               std::to_string(n) + " insns/core)");

    const auto base =
        runSuiteParallel(StripingMode::SameBank, RasTraffic::None, n);
    const auto cached =
        runSuiteParallel(StripingMode::SameBank, RasTraffic::ThreeDPCached, n);
    const auto uncached =
        runSuiteParallel(StripingMode::SameBank, RasTraffic::ThreeDPUncached, n);
    const auto ab =
        runSuiteParallel(StripingMode::AcrossBanks, RasTraffic::None, n);
    const auto ac =
        runSuiteParallel(StripingMode::AcrossChannels, RasTraffic::None, n);

    auto ratio = [&](const std::map<std::string, SimResult> &m,
                     const std::string &name) {
        return static_cast<double>(m.at(name).cycles) /
               static_cast<double>(base.at(name).cycles);
    };

    Table t({"benchmark", "3DP (cached)", "3DP (no cache)",
             "Across-Banks", "Across-Channels"});
    for (const auto &b : allBenchmarks())
        t.addRow({b.name, Table::num(ratio(cached, b.name), 3),
                  Table::num(ratio(uncached, b.name), 3),
                  Table::num(ratio(ab, b.name), 3),
                  Table::num(ratio(ac, b.name), 3)});

    auto cycles = [](const SimResult &r) {
        return static_cast<double>(r.cycles);
    };
    t.addRow({"GMEAN", Table::num(gmeanRatio(cached, base, cycles), 3),
              Table::num(gmeanRatio(uncached, base, cycles), 3),
              Table::num(gmeanRatio(ab, base, cycles), 3),
              Table::num(gmeanRatio(ac, base, cycles), 3)});
    t.print(std::cout);

    std::cout << "\nPaper reference (Fig 15 GMEAN): 3DP-cached ~1.01, "
                 "3DP-no-cache ~1.045,\nAcross-Banks ~1.10, "
                 "Across-Channels ~1.25.\n";
    return 0;
}
