/**
 * @file
 * Table III: among systems with at least one failed bank (a bank
 * needing more than 4 spare rows), how many banks failed? This sizes
 * the BRT: two spare banks cover nearly every affected system.
 */

#include <iostream>

#include "bench_util.h"
#include "faults/analysis.h"

using namespace citadel;
using namespace citadel::bench;

int
main()
{
    const u64 n = knobU64(Knob::Trials);
    printBanner(std::cout, "Table III: failed banks per system (" +
                               std::to_string(n) + " lifetimes)");

    SystemConfig cfg;
    SparingAnalysis ana(cfg);
    const FailedBankDistribution d = ana.failedBanks(n, 4, 73);

    const double total = static_cast<double>(d.systemsWithFailedBank);
    Table t({"num faulty banks", "measured", "paper Table III"});
    t.addRow({"1", Table::pct(static_cast<double>(d.one) / total), "66.98%"});
    t.addRow({"2", Table::pct(static_cast<double>(d.two) / total), "32.98%"});
    t.addRow({"3+", Table::pct(static_cast<double>(d.threePlus) / total), "0.04%"});
    t.print(std::cout);

    std::cout << "\nSystems with >= 1 failed bank: "
              << d.systemsWithFailedBank << " of " << n << " ("
              << Table::pct(total / static_cast<double>(n)) << ")\n"
              << "\nNote: with independent per-die Poisson bank "
                 "failures at Table I rates, two-bank\nsystems are "
                 "rarer than the paper's 32.98% (their field data "
                 "includes correlated\nmulti-bank events); 2 spare "
                 "banks still cover >99.9% of affected systems.\n"
              << "Covered by 2 spare banks: "
              << Table::pct(static_cast<double>(d.one + d.two) / total) << "\n";
    return 0;
}
