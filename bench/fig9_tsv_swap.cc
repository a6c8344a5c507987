/**
 * @file
 * Figure 9: effectiveness of TSV-SWAP at the pessimistic 1430 FIT TSV
 * rate. For each data mapping, compares No-TSV-Swap / With-TSV-Swap /
 * No-TSV-Faults; with the swap enabled, reliability must match the
 * fault-free-TSV level.
 */

#include <iostream>

#include "bench_util.h"

using namespace citadel;
using namespace citadel::bench;

int
main()
{
    const u64 n = knobU64(Knob::Trials, 60000);
    printBanner(std::cout, "Figure 9: TSV-SWAP at 1430 TSV FIT (" +
                               std::to_string(n) + " trials)");

    struct NamedScheme
    {
        const char *name;
        StripingMode mode;
    };
    const NamedScheme mappings[] = {
        {"Same-Bank", StripingMode::SameBank},
        {"Across-Banks", StripingMode::AcrossBanks},
        {"Across-Channels", StripingMode::AcrossChannels},
    };

    Table t({"mapping (8-bit symbol code)", "No TSV-Swap",
             "With TSV-Swap", "No TSV faults"});
    for (const auto &m : mappings) {
        SystemConfig faulty;
        faulty.tsvDeviceFit = 1430.0;
        SystemConfig clean;
        clean.tsvDeviceFit = 0.0;
        MonteCarlo mc_faulty(faulty);
        MonteCarlo mc_clean(clean);

        auto no_swap = makeSymbolBaseline(m.mode, false);
        auto with_swap = makeSymbolBaseline(m.mode, true);

        t.addRow({m.name,
                  probCell(mc_faulty.run(*no_swap, n, 51).probFail()),
                  probCell(mc_faulty.run(*with_swap, n, 51).probFail()),
                  probCell(mc_clean.run(*no_swap, n, 51).probFail())});
    }

    // Citadel's own stack (3DP), which is what ships with TSV-Swap.
    {
        SystemConfig faulty;
        faulty.tsvDeviceFit = 1430.0;
        SystemConfig clean;
        clean.tsvDeviceFit = 0.0;
        MonteCarlo mc_faulty(faulty);
        MonteCarlo mc_clean(clean);
        auto no_swap = makeParityOnly(3, false);
        auto with_swap = makeParityOnly(3, true);
        t.addRow({"3DP",
                  probCell(mc_faulty.run(*no_swap, n, 51).probFail()),
                  probCell(mc_faulty.run(*with_swap, n, 51).probFail()),
                  probCell(mc_clean.run(*no_swap, n, 51).probFail())});
    }
    t.print(std::cout);

    std::cout << "\nPaper reference (Fig 9): for every mapping, "
                 "With-TSV-Swap ~= No-TSV-Faults\neven at the highest "
                 "swept TSV rate.\n";
    return 0;
}
