/**
 * @file
 * Synthetic workload generator standing in for the paper's SPEC
 * CPU2006, PARSEC and BioBench traces (Section III-B).
 *
 * Real traces are proprietary, so each of the 38 benchmarks the paper
 * names is characterized by the tuple that drives the memory-system
 * behaviour the evaluation depends on: LLC misses per kilo-instruction,
 * spatial run length (row-buffer locality), write fraction (dirty-line
 * probability) and footprint. The values follow published
 * characterization studies of these suites; see DESIGN.md for the
 * substitution rationale. Absolute IPC is not meaningful -- normalized
 * execution time and relative power are.
 */

#ifndef CITADEL_SIM_WORKLOAD_H
#define CITADEL_SIM_WORKLOAD_H

#include <string>
#include <vector>

#include "common/rng.h"
#include "stack/geometry.h"

namespace citadel {

/** Benchmark suite tags used by per-suite summaries (Figs 13 and 16). */
enum class Suite
{
    SpecFp,
    SpecInt,
    Parsec,
    BioBench,
};

const char *suiteName(Suite s);

/** Memory-behaviour characterization of one benchmark. */
struct BenchmarkProfile
{
    std::string name;
    Suite suite;
    double mpki;       ///< LLC read misses per 1000 instructions.
    double runLength;  ///< Mean consecutive 64B lines per access burst.
    double writeFrac;  ///< Probability a filled line becomes dirty.
    u64 footprintMB;   ///< Working-set size driving address reuse.
};

/** The 29 SPEC CPU2006 + 7 PARSEC + 2 BioBench benchmarks evaluated. */
const std::vector<BenchmarkProfile> &allBenchmarks();

/** Look up a profile by name; fatal() if unknown. */
const BenchmarkProfile &findBenchmark(const std::string &name);

/**
 * Generates the LLC-miss address stream for one core running a
 * benchmark in rate mode: bursts of sequential lines (geometric run
 * lengths) at random positions inside the core's private slice of the
 * address space.
 */
class AddressStream
{
  public:
    /**
     * @param profile Benchmark characterization.
     * @param core Core index (offsets the footprint so rate-mode copies
     *        do not share data, as in the paper's setup).
     * @param total_lines Number of cache lines in physical memory.
     * @param seed RNG seed.
     */
    AddressStream(const BenchmarkProfile &profile, u32 core,
                  u64 total_lines, u64 seed);

    /**
     * The next `n` missing line addresses (system-wide line indices)
     * into out[0, n). Each run's lines are written in one pass, with
     * the cursor and run count held in locals; how a stream is split
     * into calls changes no line and no draw.
     */
    void nextLines(LineAddr *out, std::size_t n);

    /** The next missing line address: nextLines() of one line. */
    LineAddr nextLine();

  private:
    Rng rng_;
    Rng::Odds runEnd_; ///< Chance a run ends after each line.
    u64 regionBase_;   ///< First line of this core's footprint slice.
    u64 regionLines_;  ///< Lines in the footprint.
    u64 cursor_ = 0;   ///< Current position within a sequential run.
    u64 runLeft_ = 0;  ///< Lines remaining in the current run.
};

} // namespace citadel

#endif // CITADEL_SIM_WORKLOAD_H
