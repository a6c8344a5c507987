/**
 * @file
 * Figure 13: LLC hit rate of Dimension-1 parity-update requests, by
 * suite. The paper reports ~85% on average, with BioBench much lower
 * (read-dominated, near-random writes) but harmless because those
 * workloads write rarely.
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
    printBanner(std::cout, "Figure 13: D1 parity-update LLC hit rate (" +
                               std::to_string(n) + " insns/core)");

    const auto res =
        runSuiteParallel(StripingMode::SameBank, RasTraffic::ThreeDPCached, n);

    std::map<Suite, std::vector<double>> per_suite;
    std::vector<double> all;
    double probes_total = 0.0;
    double hits_total = 0.0;
    Table detail({"benchmark", "suite", "parity probes", "hit rate"});
    for (const auto &b : allBenchmarks()) {
        const SimResult &r = res.at(b.name);
        const double hr = r.parityHitRate();
        per_suite[b.suite].push_back(hr);
        all.push_back(hr);
        probes_total += static_cast<double>(r.llc.parityProbes);
        hits_total += static_cast<double>(r.llc.parityHits);
        detail.addRow({b.name, suiteName(b.suite),
                       std::to_string(r.llc.parityProbes),
                       Table::pct(hr)});
    }
    detail.print(std::cout);

    const std::map<Suite, const char *> paper_ref = {
        {Suite::SpecFp, "~88%"},
        {Suite::SpecInt, "~85%"},
        {Suite::Parsec, "~90%"},
        {Suite::BioBench, "~45%"},
    };
    printBanner(std::cout, "Per-suite mean (paper Fig 13)");
    Table t({"suite", "measured mean hit rate", "paper"});
    for (const auto &[suite, rates] : per_suite)
        t.addRow({suiteName(suite), Table::pct(mean(rates)),
                  paper_ref.at(suite)});
    t.addRow({"MEAN", Table::pct(mean(all)), "~85%"});
    t.addRow({"TRAFFIC-WEIGHTED",
              Table::pct(probes_total > 0 ? hits_total / probes_total
                                          : 0.0),
              "-"});
    t.print(std::cout);
    std::cout << "\nThe traffic-weighted rate is what performance "
                 "actually sees: benchmarks that\nrarely write "
                 "contribute few parity updates (the paper makes the "
                 "same point about\nBioBench).\n";
    return 0;
}
