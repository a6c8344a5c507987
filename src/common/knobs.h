/**
 * @file
 * The run-time knob table: every CITADEL_* environment variable, one
 * row each, read only through the accessors below (DESIGN.md §13.4).
 * Values are accepted exactly or rejected with `warn: env: ...` and
 * the default: unsigned knobs take decimal digits only, doubles finite
 * decimals, choices an exact spelling, and numbers must lie in their
 * inclusive range. Unset and empty mean the default. README.md lists
 * the same rows (tests/test_env.cc checks both).
 */

#ifndef CITADEL_COMMON_KNOBS_H
#define CITADEL_COMMON_KNOBS_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <string>
#include <string_view>

#include "common/types.h"

namespace citadel {

/** One id per row of kKnobs, in table order. */
enum class Knob : u8
{
    Trials, Insns, Threads, Seed, Kernel,
    FleetServers, FleetTicks, FleetUsers, FleetKeyspace, FleetArrivals,
    FleetWriteFrac, FleetReplication, FleetQuorum, FleetQueueCap,
    FleetTrace, FleetChaos, FleetCrashes,
    FleetDropProb, FleetJoin, FleetRebalance, FleetCheckpoint,
    FleetCalibInsns, FleetFitScale,
    SoakYears, SoakShards, SoakProbes, SoakCyclesPerHour,
    SoakCheckpointHours, SoakCheckpointFile, SoakFitScale, TsvFit, MetaFit,
    MetaRetryMax, MetaBackoffCycles,
};

/** What text a knob accepts, and so which accessor reads it. */
enum class KnobKind : u8
{
    Unsigned, ///< Decimal digits in [uLo, uHi]; knobU64().
    Double,   ///< Finite decimal in [dLo, dHi]; knobDouble().
    Choice,   ///< One of `choices`, exactly; knobChoice().
    Text,     ///< Any text, default empty; knobText().
};

/** One knob: name, kind, range or spellings, default, doc. */
struct KnobSpec
{
    Knob id;
    const char *name;
    KnobKind kind;
    u64 uDefault, uLo, uHi;
    double dDefault, dLo, dHi;
    std::string_view sDefault; ///< Choice rows: one of `choices`.
    std::array<std::string_view, 3> choices;
    const char *doc;

    /** Spellings a choice row declares (the non-empty `choices`). */
    constexpr std::size_t choiceCount() const
    {
        std::size_t n = 0;
        while (n < choices.size() && !choices[n].empty())
            ++n;
        return n;
    }
};

constexpr KnobSpec
unsignedKnob(Knob id, const char *name, u64 def, u64 lo, u64 hi,
             const char *doc)
{
    return {id, name, KnobKind::Unsigned, def, lo, hi, 0, 0, 0, {}, {}, doc};
}

constexpr KnobSpec
doubleKnob(Knob id, const char *name, double def, double lo, double hi,
           const char *doc)
{
    return {id, name, KnobKind::Double, 0, 0, 0, def, lo, hi, {}, {}, doc};
}

/** Spellings are listed in the order of the enum they select. */
constexpr KnobSpec
choiceKnob(Knob id, const char *name, std::string_view def,
           std::array<std::string_view, 3> choices, const char *doc)
{
    return {id, name, KnobKind::Choice, 0, 0, 0, 0, 0, 0, def, choices,
            doc};
}

constexpr KnobSpec
textKnob(Knob id, const char *name, const char *doc)
{
    return {id, name, KnobKind::Text, 0, 0, 0, 0, 0, 0, {}, {}, doc};
}

constexpr u64 kU64Max = std::numeric_limits<u64>::max();

// clang-format off
inline constexpr KnobSpec kKnobs[] = {
    unsignedKnob(Knob::Trials, "CITADEL_TRIALS", 100'000, 1, 1'000'000'000,
        "Monte Carlo lifetimes per configuration; fig4/fig9 default to "
        "60000 and fig18/fig19 to 300000 (the paper uses 1e5-1e6)"),
    unsignedKnob(Knob::Insns, "CITADEL_INSNS", 400'000, 1, 1'000'000'000,
        "instructions per core for the timing benches; live_ras_overhead "
        "defaults to 30000"),
    unsignedKnob(Knob::Threads, "CITADEL_THREADS", 0, 0, 1024,
        "worker threads, 0 = all cores; every result is bit-identical "
        "for any value"),
    unsignedKnob(Knob::Seed, "CITADEL_SEED", 1, 0, kU64Max,
        "soak and fleet campaign master seed"),
    choiceKnob(Knob::Kernel, "CITADEL_KERNEL", "auto",
        {"scalar", "vector", "auto"},
        "hot-kernel dispatch: scalar proofs, portable vector bodies, "
        "or the best the CPU has (AVX2/AVX-512 lowerings, hw CRC); all "
        "bit-identical"),
    unsignedKnob(Knob::FleetServers, "CITADEL_FLEET_SERVERS", 8, 2, 64,
        "stack servers"),
    unsignedKnob(Knob::FleetTicks, "CITADEL_FLEET_TICKS", 2048, 64,
        1'000'000, "campaign ticks"),
    unsignedKnob(Knob::FleetUsers, "CITADEL_FLEET_USERS", 1'000'000, 1,
        1'000'000'000, "distinct clients"),
    unsignedKnob(Knob::FleetKeyspace, "CITADEL_FLEET_KEYSPACE", 512, 1,
        1'000'000, "distinct keys"),
    unsignedKnob(Knob::FleetArrivals, "CITADEL_FLEET_ARRIVALS", 4, 1, 1024,
        "operations per tick"),
    doubleKnob(Knob::FleetWriteFrac, "CITADEL_FLEET_WRITE_FRAC", 0.5, 0.0,
        1.0, "write fraction"),
    unsignedKnob(Knob::FleetReplication, "CITADEL_FLEET_REPLICATION", 2, 1,
        8, "copies per key"),
    unsignedKnob(Knob::FleetQuorum, "CITADEL_FLEET_QUORUM", 2, 1, 8,
        "write-ack quorum"),
    unsignedKnob(Knob::FleetQueueCap, "CITADEL_FLEET_QUEUE_CAP", 256, 1,
        65536, "per-server inbox cap"),
    textKnob(Knob::FleetTrace, "CITADEL_FLEET_TRACE",
        "trace-replay spec (EXPERIMENTS.md grammar); empty = uniform "
        "arrivals"),
    unsignedKnob(Knob::FleetChaos, "CITADEL_FLEET_CHAOS", 1, 0, 1,
        "chaos schedule on/off"),
    unsignedKnob(Knob::FleetCrashes, "CITADEL_FLEET_CRASHES", 1, 0, 64,
        "scheduled server crashes"),
    doubleKnob(Knob::FleetDropProb, "CITADEL_FLEET_DROP_PROB", 0.01, 0.0,
        1.0, "per-message loss probability"),
    unsignedKnob(Knob::FleetJoin, "CITADEL_FLEET_JOIN", 0, 0, 1,
        "restart + rejoin after sampled crashes/stalls"),
    unsignedKnob(Knob::FleetRebalance, "CITADEL_FLEET_REBALANCE", 0, 0, 1,
        "load-driven hot-shard migration"),
    unsignedKnob(Knob::FleetCheckpoint, "CITADEL_FLEET_CHECKPOINT", 0, 0,
        1'000'000, "checkpoint/resume proof cut tick, 0 = off"),
    unsignedKnob(Knob::FleetCalibInsns, "CITADEL_FLEET_CALIB_INSNS", 20'000,
        0, 10'000'000, "SystemSim calibration slice, 0 = off"),
    doubleKnob(Knob::FleetFitScale, "CITADEL_FLEET_FIT_SCALE", 2000.0, 0.0,
        1e6, "device FIT multiplier (vs. nominal 8Gb)"),
    doubleKnob(Knob::SoakYears, "CITADEL_SOAK_YEARS", 2.0, 0.01, 100.0,
        "simulated years per shard"),
    unsignedKnob(Knob::SoakShards, "CITADEL_SOAK_SHARDS", 4, 1, 256,
        "independent device lifetimes"),
    unsignedKnob(Knob::SoakProbes, "CITADEL_SOAK_PROBES", 16, 1, 4096,
        "probe reads per scrub epoch"),
    unsignedKnob(Knob::SoakCyclesPerHour, "CITADEL_SOAK_CYCLES_PER_HOUR",
        2048, 1, 1'000'000'000, "aging compression"),
    doubleKnob(Knob::SoakCheckpointHours, "CITADEL_SOAK_CHECKPOINT_HOURS",
        0.0, 0.0, 1e7, "checkpoint period, 0 = midpoint only"),
    textKnob(Knob::SoakCheckpointFile, "CITADEL_SOAK_CHECKPOINT_FILE",
        "also write the last checkpoint blob to this path"),
    doubleKnob(Knob::SoakFitScale, "CITADEL_SOAK_FIT_SCALE", 2000.0, 0.0,
        1e6, "soak data-plane FIT multiplier"),
    doubleKnob(Knob::TsvFit, "CITADEL_TSV_FIT", 1430.0, 0.0, 1e6,
        "soak TSV device FIT"),
    doubleKnob(Knob::MetaFit, "CITADEL_META_FIT", 200'000.0, 0.0, 1e6,
        "soak control-plane upsets (FIT/stack)"),
    unsignedKnob(Knob::MetaRetryMax, "CITADEL_META_RETRY_MAX", 3, 1, 64,
        "metadata scrub retries"),
    unsignedKnob(Knob::MetaBackoffCycles, "CITADEL_META_BACKOFF_CYCLES", 16,
        1, 1'000'000, "metadata retry backoff base"),
};
// clang-format on

/**
 * Whether a row is self-consistent: a numeric default lies in its
 * finite range and a choice default is one of its spellings.
 */
constexpr bool
knobRowValid(const KnobSpec &s)
{
    switch (s.kind) {
    case KnobKind::Unsigned:
        return s.uLo <= s.uDefault && s.uDefault <= s.uHi;
    case KnobKind::Double: // A NaN anywhere fails a comparison.
        return s.dLo >= -1e300 && s.dHi <= 1e300 && s.dLo <= s.dDefault &&
               s.dDefault <= s.dHi;
    case KnobKind::Choice:
        return !s.sDefault.empty() &&
               std::find(s.choices.begin(), s.choices.end(), s.sDefault) !=
                   s.choices.end();
    case KnobKind::Text: return true;
    }
    return false;
}

/** Every row valid, rows in Knob order, every name distinct. */
constexpr bool
knobTableValid()
{
    constexpr std::size_t n = std::size(kKnobs);
    for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<std::size_t>(kKnobs[i].id) != i ||
            !knobRowValid(kKnobs[i]))
            return false;
        for (std::size_t j = 0; j < i; ++j)
            if (std::string_view(kKnobs[i].name) == kKnobs[j].name)
                return false;
    }
    return static_cast<std::size_t>(Knob::MetaBackoffCycles) + 1 == n;
}

static_assert(knobTableValid(), "kKnobs: a row is out of order, "
                                "duplicated, or has an invalid default");

constexpr const KnobSpec &
knobSpec(Knob k)
{
    return kKnobs[static_cast<std::size_t>(k)];
}

/** Unsigned knob, or its row default. */
u64 knobU64(Knob k);

/**
 * Unsigned knob with a caller-chosen default (benches size their own
 * runs). The fallback must lie in the row's range: violating that is
 * a programming error and fatal, even when the knob is unset.
 */
u64 knobU64(Knob k, u64 fallback);

/** Double knob, or its row default. */
double knobDouble(Knob k);

/** Index into the row's spellings of a choice knob's value. */
std::size_t knobChoice(Knob k);

/** Text knob, or its (empty) row default. */
std::string knobText(Knob k);

} // namespace citadel

#endif // CITADEL_COMMON_KNOBS_H
