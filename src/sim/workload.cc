#include "sim/workload.h"

#include <algorithm>

#include "common/log.h"

namespace citadel {

const char *
suiteName(Suite s)
{
    switch (s) {
      case Suite::SpecFp: return "SPEC-FP";
      case Suite::SpecInt: return "SPEC-INT";
      case Suite::Parsec: return "PARSEC";
      case Suite::BioBench: return "BIOBENCH";
    }
    return "?";
}

const std::vector<BenchmarkProfile> &
allBenchmarks()
{
    // {name, suite, LLC MPKI, run length (lines), write fraction,
    //  footprint MB}. Values follow published characterizations of
    // SPEC CPU2006 (rate mode, ~8MB LLC), PARSEC (simlarge) and
    // BioBench; see DESIGN.md.
    static const std::vector<BenchmarkProfile> benchmarks = {
        // SPEC CPU2006 floating point (17). Streaming codes sustain
        // multi-KB sequential runs; run lengths are in 64B lines.
        {"bwaves", Suite::SpecFp, 16.0, 192.0, 0.30, 512},
        {"gamess", Suite::SpecFp, 0.3, 24.0, 0.25, 16},
        {"milc", Suite::SpecFp, 24.0, 64.0, 0.35, 512},
        {"zeusmp", Suite::SpecFp, 7.0, 96.0, 0.35, 256},
        {"gromacs", Suite::SpecFp, 1.0, 48.0, 0.30, 32},
        {"cactusADM", Suite::SpecFp, 6.0, 80.0, 0.40, 256},
        {"leslie3d", Suite::SpecFp, 18.0, 160.0, 0.35, 256},
        {"namd", Suite::SpecFp, 0.6, 48.0, 0.20, 32},
        {"dealII", Suite::SpecFp, 1.2, 48.0, 0.25, 64},
        {"soplex", Suite::SpecFp, 25.0, 48.0, 0.25, 256},
        {"povray", Suite::SpecFp, 0.3, 24.0, 0.20, 16},
        {"calculix", Suite::SpecFp, 0.7, 64.0, 0.25, 32},
        {"GemsFDTD", Suite::SpecFp, 22.0, 224.0, 0.45, 512},
        {"tonto", Suite::SpecFp, 0.8, 48.0, 0.25, 32},
        {"lbm", Suite::SpecFp, 30.0, 512.0, 0.45, 512},
        {"wrf", Suite::SpecFp, 8.0, 128.0, 0.30, 256},
        {"sphinx3", Suite::SpecFp, 15.0, 80.0, 0.15, 128},
        // SPEC CPU2006 integer (12)
        {"perlbench", Suite::SpecInt, 1.2, 32.0, 0.30, 64},
        {"bzip2", Suite::SpecInt, 4.0, 64.0, 0.35, 128},
        {"gcc", Suite::SpecInt, 8.0, 48.0, 0.35, 128},
        {"mcf", Suite::SpecInt, 35.0, 2.0, 0.20, 1024},
        {"gobmk", Suite::SpecInt, 1.0, 32.0, 0.25, 32},
        {"hmmer", Suite::SpecInt, 1.5, 64.0, 0.30, 32},
        {"sjeng", Suite::SpecInt, 0.8, 16.0, 0.25, 64},
        {"libquantum", Suite::SpecInt, 28.0, 512.0, 0.25, 256},
        {"h264ref", Suite::SpecInt, 1.5, 64.0, 0.30, 64},
        {"omnetpp", Suite::SpecInt, 20.0, 3.0, 0.30, 256},
        {"astar", Suite::SpecInt, 4.0, 8.0, 0.25, 128},
        {"xalancbmk", Suite::SpecInt, 6.0, 8.0, 0.25, 256},
        // PARSEC (7): black, face, ferret, fluid, freq, stream, swapt
        {"black", Suite::Parsec, 1.5, 64.0, 0.25, 64},
        {"face", Suite::Parsec, 4.0, 80.0, 0.30, 128},
        {"ferret", Suite::Parsec, 3.0, 48.0, 0.25, 128},
        {"fluid", Suite::Parsec, 3.0, 80.0, 0.30, 128},
        {"freq", Suite::Parsec, 2.0, 48.0, 0.30, 128},
        {"stream", Suite::Parsec, 10.0, 192.0, 0.35, 256},
        {"swapt", Suite::Parsec, 1.5, 48.0, 0.25, 64},
        // BioBench (2): read-dominated, near-random access
        {"tigr", Suite::BioBench, 25.0, 1.5, 0.05, 512},
        {"mummer", Suite::BioBench, 30.0, 1.5, 0.05, 512},
    };
    return benchmarks;
}

const BenchmarkProfile &
findBenchmark(const std::string &name)
{
    for (const auto &b : allBenchmarks())
        if (b.name == name)
            return b;
    fatal("unknown benchmark '%s'", name.c_str());
}

AddressStream::AddressStream(const BenchmarkProfile &profile, u32 core,
                             u64 total_lines, u64 seed)
    : rng_(seed ^ (0x6C62272E07BB0142ull * (core + 1))),
      runEnd_(Rng::odds(1.0 / std::max(1.0, profile.runLength)))
{
    const u64 lines_per_mb = (1ull << 20) / 64;
    regionLines_ = std::max<u64>(profile.footprintMB * lines_per_mb, 64);
    // Rate mode: each core gets a disjoint slice of physical memory
    // (first-touch allocation of distinct copies).
    const u64 slice = total_lines / 8;
    regionLines_ = std::min(regionLines_, slice);
    regionBase_ = (core % 8) * slice;
    cursor_ = regionBase_;
}

void
AddressStream::nextLines(LineAddr *out, std::size_t n)
{
    u64 cursor = cursor_;
    u64 runLeft = runLeft_;
    const u64 end = regionBase_ + regionLines_;
    std::size_t i = 0;
    while (i < n) {
        if (runLeft == 0) {
            // Start a new burst at a random line; geometric run length
            // with the profile's mean.
            cursor = regionBase_ + rng_.below(regionLines_);
            runLeft = 1;
            while (!rng_.chance(runEnd_) && runLeft < 4096)
                ++runLeft;
        }
        // The run's next lines up to the slice's end, where the cursor
        // wraps to its start.
        const u64 take = std::min({runLeft, static_cast<u64>(n - i),
                                   end - cursor});
        for (u64 k = 0; k < take; ++k)
            out[i + k] = LineAddr{cursor + k};
        i += take;
        runLeft -= take;
        cursor += take;
        if (cursor == end)
            cursor = regionBase_;
    }
    cursor_ = cursor;
    runLeft_ = runLeft;
}

// Flattened so that nextLines() inlines with n = 1: the run phase
// calls this once per miss.
[[gnu::flatten]] LineAddr
AddressStream::nextLine()
{
    LineAddr line;
    nextLines(&line, 1);
    return line;
}

} // namespace citadel
