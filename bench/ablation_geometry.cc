/**
 * @file
 * Ablation (Section II-C): the paper analyzes an HBM-like stack but
 * notes the reliability improvement "is equally high for the HMC and
 * Tezzaron designs". This bench reruns the Citadel-vs-striped-code
 * comparison on all three organizations.
 */

#include <iostream>

#include "bench_util.h"

using namespace citadel;
using namespace citadel::bench;

int
main()
{
    const u64 n = knobU64(Knob::Trials);
    printBanner(std::cout,
                "Stack-organization ablation (" + std::to_string(n) +
                    " trials, TSV FIT 1430)");

    struct Org
    {
        const char *name;
        StackGeometry geom;
    };
    const Org orgs[] = {
        {"HBM-like (8ch x 8bk, 256 DTSV)", StackGeometry::hbm()},
        {"HMC-like (16ch x 8bk, 32 DTSV)", StackGeometry::hmcLike()},
        {"Tezzaron-like (4ch x 16bk, 128 DTSV)",
         StackGeometry::tezzaronLike()},
    };

    Table t({"organization", "Citadel", "SSC striped",
             "improvement"});
    for (const Org &o : orgs) {
        SystemConfig cfg;
        cfg.geom = o.geom;
        cfg.tsvDeviceFit = 1430.0;
        MonteCarlo mc(cfg);
        auto cit = makeCitadel();
        auto ssc =
            makeSymbolBaseline(StripingMode::AcrossChannels, true);
        const McResult rc = mc.run(*cit, n, 97);
        const McResult rs = mc.run(*ssc, n, 97);
        t.addRow({o.name, probCell(rc.probFail()),
                  probCell(rs.probFail()),
                  ratioCell(rs.probFail(), rc.probFail())});
    }
    t.print(std::cout);

    std::cout << "\nPaper reference (Section II-C): the improvement is "
                 "organization-independent;\nCitadel's mechanisms attach "
                 "to rows/banks/TSVs, not to a specific layout.\n";
    return 0;
}
