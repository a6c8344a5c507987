/**
 * @file
 * Figure 16: active power by suite, normalized to the fault-free
 * Same-Bank baseline. Paper: 3DP ~1.04x; Across-Banks / Across-
 * Channels 3x-5x from extra activations and row conflicts.
 */

#include <iostream>
#include <map>

#include "bench_util.h"

using namespace citadel;
using namespace citadel::bench;

int
main()
{
    const u64 n = knobU64(Knob::Insns);
    printBanner(std::cout, "Figure 16: normalized active power (" +
                               std::to_string(n) + " insns/core)");

    const auto base =
        runSuiteParallel(StripingMode::SameBank, RasTraffic::None, n);
    const auto threedp =
        runSuiteParallel(StripingMode::SameBank, RasTraffic::ThreeDPCached, n);
    const auto ab =
        runSuiteParallel(StripingMode::AcrossBanks, RasTraffic::None, n);
    const auto ac =
        runSuiteParallel(StripingMode::AcrossChannels, RasTraffic::None, n);

    auto suite_ratio = [&](const std::map<std::string, SimResult> &m,
                           Suite s) {
        std::vector<double> r;
        for (const auto &b : allBenchmarks())
            if (b.suite == s)
                r.push_back(m.at(b.name).power.totalW() /
                            base.at(b.name).power.totalW());
        return geomean(r);
    };

    Table t({"suite", "3DP", "Across-Banks", "Across-Channels"});
    for (Suite s : {Suite::SpecFp, Suite::SpecInt, Suite::Parsec,
                    Suite::BioBench})
        t.addRow({suiteName(s), Table::num(suite_ratio(threedp, s), 3),
                  Table::num(suite_ratio(ab, s), 3),
                  Table::num(suite_ratio(ac, s), 3)});

    auto power = [](const SimResult &r) { return r.power.totalW(); };
    t.addRow({"GMEAN",
              Table::num(gmeanRatio(threedp, base, power), 3),
              Table::num(gmeanRatio(ab, base, power), 3),
              Table::num(gmeanRatio(ac, base, power), 3)});
    t.print(std::cout);

    std::cout << "\nPaper reference (Fig 16): 3DP ~1.04x, striped "
                 "mappings 3x-5x.\n";
    return 0;
}
