/**
 * @file
 * Figure 18: the full Citadel stack (3DP + DDS, TSV-Swap on) against
 * the 8-bit symbol code striped across channels, over the 7-year
 * lifetime. The paper's headline: ~700x better reliability, with DDS
 * removing >99.99% of faults before they can accumulate.
 */

#include <iostream>

#include "bench_util.h"

using namespace citadel;
using namespace citadel::bench;

int
main()
{
    const u64 n = knobU64(Knob::Trials, 300000);
    printBanner(std::cout, "Figure 18: Citadel (3DP+DDS) resilience (" +
                               std::to_string(n) + " trials, TSV FIT "
                               "1430, TSV-Swap on)");

    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    MonteCarlo mc(cfg);

    auto full = makeCitadel();          // TSV-Swap + DDS + 3DP
    auto parity = makeParityOnly(3, true); // 3DP without DDS
    auto ssc = makeSymbolBaseline(StripingMode::AcrossChannels, true);

    const McResult rf = mc.run(*full, n, 81);
    const McResult rp = mc.run(*parity, n, 81);
    const McResult rs = mc.run(*ssc, n, 81);

    Table t({"year", "3DP+DDS (Citadel)", "3DP only",
             "8-bit symbol (across-ch)"});
    for (u32 y = 1; y <= 7; ++y)
        t.addRow({std::to_string(y), probCell(rf.probFailByYear(y)),
                  probCell(rp.probFailByYear(y)),
                  probCell(rs.probFailByYear(y))});
    t.print(std::cout);

    printBanner(std::cout, "Failure attribution (class of the fault "
                           "completing the fatal pattern)");
    Table a({"scheme", "attribution"});
    auto attrib = [](const McResult &r) {
        std::string out;
        for (const auto &[cls, count] : r.failuresByClass)
            out += std::string(faultClassName(cls)) + ":" +
                   std::to_string(count) + " ";
        return out.empty() ? std::string("(no failures)") : out;
    };
    a.addRow({"Citadel", attrib(rf)});
    a.addRow({"3DP only", attrib(rp)});
    a.addRow({"SSC across-ch", attrib(rs)});
    a.print(std::cout);

    std::cout << "\nAt year 7: Citadel vs striped symbol code = "
              << ratioCell(rs.probFail(), rf.probFail())
              << "  (paper: ~700x)\n"
              << "Citadel failures: " << rf.failures << "/" << n
              << ", symbol-code failures: " << rs.failures << "/" << n
              << "\n";
    return 0;
}
