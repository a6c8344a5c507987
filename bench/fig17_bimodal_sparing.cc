/**
 * @file
 * Figure 17: distribution of the number of rows a faulty bank would
 * consume under row-granularity sparing. The paper's key observation:
 * the distribution is bimodal -- a handful of rows (<= 4), or
 * thousands (sub-array or full bank) -- which motivates DDS's two
 * sparing granularities.
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
    printBanner(std::cout,
                "Figure 17: rows required to spare a faulty bank (" +
                    std::to_string(n) + " lifetimes, permanent faults)");

    SystemConfig cfg; // no TSV faults: DRAM-internal analysis
    SparingAnalysis ana(cfg);
    const SparingHistogram h = ana.histogram(n, 71);

    Table t({"rows required", "faulty banks", "fraction"});
    for (const auto &[rows, count] : h.counts)
        t.addRow({std::to_string(rows), std::to_string(count),
                  Table::pct(h.fraction(rows))});
    t.print(std::cout);

    std::cout << "\nFaulty banks observed: " << h.totalFaultyBanks
              << "\n  fine-grained side  (<= 4 rows):   "
              << Table::pct(h.fractionAtMost(4))
              << "\n  coarse-grained side (>= 1K rows): "
              << Table::pct(h.fractionAtLeast(1024))
              << "\n  middle (5 .. 1023 rows):          "
              << Table::pct(1.0 - h.fractionAtMost(4) -
                            h.fractionAtLeast(1024))
              << "\n\nPaper reference (Fig 17): bimodal, peaks at <=2 "
                 "rows, ~5.2K rows (sub-array)\nand 64K rows (bank); "
                 "nothing in between. Our sub-arrays are 4096-row\n"
                 "aligned blocks (see DESIGN.md); mode weights follow "
                 "Table I rates.\n";
    return 0;
}
