/**
 * @file
 * Sensitivity ablations for the design choices DESIGN.md calls out:
 * scrub interval (the DDS vulnerability window), DDS spare budgets
 * (rows per bank / banks per stack), the sub-array fraction of
 * bank-class faults (Fig 17's middle peak), and a future-work density
 * scaling of the Table I rates (16Gb/32Gb dies).
 */

#include <iostream>

#include "bench_util.h"
#include "ecc/secded.h"

using namespace citadel;
using namespace citadel::bench;

int
main()
{
    const u64 n = knobU64(Knob::Trials);

    // --- Scrub interval ------------------------------------------------
    printBanner(std::cout, "Scrub-interval sensitivity (" +
                               std::to_string(n) + " trials)");
    {
        Table t({"scrub interval (h)", "Citadel P(fail,7y)",
                 "3DP-only P(fail,7y)"});
        for (double scrub : {3.0, 12.0, 48.0, 168.0, 720.0}) {
            SystemConfig cfg;
            cfg.tsvDeviceFit = 1430.0;
            cfg.scrubHours = scrub;
            MonteCarlo mc(cfg);
            auto cit = makeCitadel();
            auto p3 = makeParityOnly(3, true);
            t.addRow({Table::num(scrub, 0),
                      probCell(mc.run(*cit, n, 111).probFail()),
                      probCell(mc.run(*p3, n, 111).probFail())});
        }
        t.print(std::cout);
        std::cout << "(The paper fixes 12h; Citadel's window for "
                     "concurrent-fault loss grows with it.)\n";
    }

    // --- DDS budgets ----------------------------------------------------
    printBanner(std::cout, "DDS spare-budget sensitivity");
    {
        Table t({"spare rows/bank", "spare banks/stack",
                 "Citadel P(fail,7y)"});
        const u32 rows_sweep[] = {1, 4, 16};
        const u32 banks_sweep[] = {0, 1, 2, 4};
        for (u32 rows : rows_sweep)
            for (u32 banks : banks_sweep) {
                CitadelOptions opts;
                opts.spareRowsPerBank = rows;
                opts.spareBanksPerStack = banks;
                SystemConfig cfg;
                cfg.tsvDeviceFit = 1430.0;
                MonteCarlo mc(cfg);
                auto s = makeCitadel(opts);
                t.addRow({std::to_string(rows), std::to_string(banks),
                          probCell(mc.run(*s, n, 113).probFail())});
            }
        t.print(std::cout);
        std::cout << "(Paper: 4 rows/bank + 2 banks/stack; more banks "
                     "buy little -- Table III.)\n";
    }

    // --- Sub-array fraction ----------------------------------------------
    printBanner(std::cout, "Sub-array fraction of bank-class faults");
    {
        Table t({"subarray fraction", "Citadel P(fail,7y)",
                 "SSC striped P(fail,7y)"});
        for (double frac : {0.0, 0.3, 0.7, 1.0}) {
            SystemConfig cfg;
            cfg.tsvDeviceFit = 1430.0;
            cfg.subArrayFraction = frac;
            MonteCarlo mc(cfg);
            auto cit = makeCitadel();
            auto ssc =
                makeSymbolBaseline(StripingMode::AcrossChannels, true);
            t.addRow({Table::num(frac, 1),
                      probCell(mc.run(*cit, n, 117).probFail()),
                      probCell(mc.run(*ssc, n, 117).probFail())});
        }
        t.print(std::cout);
    }

    // --- Density scaling (future work) ------------------------------------
    printBanner(std::cout,
                "Density scaling: Table I rates x2 / x4 (16Gb / 32Gb "
                "dies)");
    {
        Table t({"rate scale", "SECDED (ECC-DIMM)", "SSC striped",
                 "Citadel"});
        for (double k : {1.0, 2.0, 4.0}) {
            SystemConfig cfg;
            cfg.tsvDeviceFit = 1430.0 * k;
            cfg.rates = FitTable::paper8Gb().scaledBy(k);
            MonteCarlo mc(cfg);
            SecdedScheme secded;
            auto ssc =
                makeSymbolBaseline(StripingMode::AcrossChannels, true);
            auto cit = makeCitadel();
            t.addRow({Table::num(k, 0) + "x",
                      probCell(mc.run(secded, n, 119).probFail()),
                      probCell(mc.run(*ssc, n, 119).probFail()),
                      probCell(mc.run(*cit, n, 119).probFail())});
        }
        t.print(std::cout);
        std::cout << "(Citadel's margin widens with density -- the "
                     "fail-in-place motivation of Section I.)\n";
    }
    return 0;
}
