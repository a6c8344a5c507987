/**
 * @file
 * Figure 4: probability of system failure in 7 years under the strong
 * 8-bit symbol-based code (ChipKill-like) for the three data mappings,
 * swept over the TSV device FIT rate. The paper's qualitative result:
 * Across-Channels is the most reliable (TSV faults stay within one
 * symbol position); Same-Bank is orders of magnitude worse.
 */

#include <iostream>

#include "bench_util.h"

using namespace citadel;
using namespace citadel::bench;

int
main()
{
    const u64 n = knobU64(Knob::Trials, 60000);
    printBanner(std::cout,
                "Figure 4: striping vs reliability, 8-bit symbol code "
                "(" + std::to_string(n) + " Monte Carlo trials)");

    const double tsv_fits[] = {0.0, 14.0, 143.0, 430.0, 1000.0, 1430.0};
    const StripingMode modes[] = {StripingMode::SameBank,
                                  StripingMode::AcrossBanks,
                                  StripingMode::AcrossChannels};

    Table t({"TSV device FIT", "Same-Bank", "Across-Banks",
             "Across-Channels"});
    for (double fit : tsv_fits) {
        std::vector<std::string> row;
        row.push_back(fit == 0.0 ? "none" : Table::num(fit, 0));
        for (StripingMode m : modes) {
            SystemConfig cfg;
            cfg.tsvDeviceFit = fit;
            MonteCarlo mc(cfg);
            auto scheme = makeSymbolBaseline(m, /*tsv_swap=*/false);
            const McResult r = mc.run(*scheme, n, 41);
            row.push_back(probCell(r.probFail()));
        }
        t.addRow(row);
    }
    t.print(std::cout);

    std::cout << "\nPaper reference (Fig 4): Across-Channels lowest "
                 "P(fail) at every TSV rate;\nSame-Bank worst (~1e-1); "
                 "striped mappings degrade as TSV FIT grows because\n"
                 "DTSV faults span all banks of a die.\n";
    return 0;
}
