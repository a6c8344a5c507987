/**
 * @file
 * Figure 19: Citadel vs a strong BCH code (6EC7ED) and RAID-5, in a
 * system with no TSV faults (as in the paper's Section VIII-F).
 * Expected ordering: 6EC7ED << RAID-5 << Citadel, with RAID-5 ~89x
 * over 6EC7ED and Citadel ~1000x over RAID-5.
 */

#include <iostream>

#include "bench_util.h"

using namespace citadel;
using namespace citadel::bench;

int
main()
{
    const u64 n = knobU64(Knob::Trials, 300000);
    printBanner(std::cout, "Figure 19: Citadel vs 6EC7ED vs RAID-5 (" +
                               std::to_string(n) +
                               " trials, no TSV faults)");

    SystemConfig cfg;
    cfg.tsvDeviceFit = 0.0;
    MonteCarlo mc(cfg);

    auto bch = makeBchBaseline();
    auto raid = makeRaid5Baseline();
    auto full = makeCitadel();

    const McResult rb = mc.run(*bch, n, 91);
    const McResult rr = mc.run(*raid, n, 91);
    const McResult rc = mc.run(*full, n, 91);

    Table t({"year", "BCH 6EC7ED", "RAID-5", "Citadel"});
    for (u32 y = 1; y <= 7; ++y)
        t.addRow({std::to_string(y), probCell(rb.probFailByYear(y)),
                  probCell(rr.probFailByYear(y)),
                  probCell(rc.probFailByYear(y))});
    t.print(std::cout);

    std::cout << "\nAt year 7: RAID-5 over 6EC7ED = "
              << ratioCell(rb.probFail(), rr.probFail())
              << " (paper ~89x);\n  Citadel over RAID-5 = "
              << ratioCell(rr.probFail(), rc.probFail())
              << " (paper ~1000x)\n";
    return 0;
}
