/**
 * @file
 * Lifetime soak driver: ages `CITADEL_SOAK_SHARDS` independent device
 * lifetimes over `CITADEL_SOAK_YEARS` simulated years on the live RAS
 * datapath (control-plane faults included), with optional periodic
 * checkpointing, and proves the checkpoint/resume path on every run: a
 * second campaign is restored from the last checkpoint, aged to end of
 * life, and its fingerprint must equal the uninterrupted run's.
 *
 * Every CITADEL_SOAK_* / CITADEL_META_* knob, CITADEL_TSV_FIT,
 * CITADEL_SEED and CITADEL_THREADS is a row of the knob table
 * (common/knobs.h, listed in README.md); a typo'd value is rejected
 * with a warning rather than silently wedging a multi-hour campaign.
 * The fingerprint is identical for any thread count.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/knobs.h"
#include "ras/soak.h"

using namespace citadel;

namespace {

SoakConfig
configFromEnv()
{
    SoakConfig cfg;
    cfg.sim.geom = StackGeometry::tiny();
    cfg.years = knobDouble(Knob::SoakYears);
    cfg.shards = static_cast<u32>(knobU64(Knob::SoakShards));
    cfg.probesPerEpoch = static_cast<u32>(knobU64(Knob::SoakProbes));
    cfg.cyclesPerHour = knobU64(Knob::SoakCyclesPerHour);
    cfg.seed = knobU64(Knob::Seed);

    // The tiny geometry has ~2^-17 of an 8GB stack's cells, so the
    // Table I rates would arrive ~0 faults in a short soak. Scale the
    // data plane up (default x2000 keeps a 2-year soak eventful) --
    // the soak exercises mechanisms, it is not a reliability estimate.
    cfg.faults.rates =
        FitTable::paper8Gb().scaledBy(knobDouble(Knob::SoakFitScale));
    cfg.faults.tsvDeviceFit = knobDouble(Knob::TsvFit);
    // Control-plane upsets: default high enough that a short soak
    // sees the scrub/mirror/loss machinery in action (~1e5 FIT x
    // 17520h x 2 stacks = a handful of events).
    cfg.faults.metaFit = knobDouble(Knob::MetaFit);

    cfg.ras.meta.retryMax = static_cast<u32>(knobU64(Knob::MetaRetryMax));
    cfg.ras.meta.backoffCycles = knobU64(Knob::MetaBackoffCycles);
    return cfg;
}

/**
 * Write `bytes` to `path` through `<path>.tmp` and a rename, so a crash
 * mid-write never leaves a torn file at `path`. Prints a diagnostic and
 * returns false if the open, the write, the close or the rename fails.
 */
bool
writeFileAtomically(const std::string &path, const std::vector<u8> &bytes)
{
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
        std::cerr << "FAIL: could not write checkpoint blob to " << tmp
                  << "\n";
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::cerr << "FAIL: could not rename " << tmp << " to " << path
                  << ": " << std::strerror(errno) << "\n";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main()
{
    const SoakConfig cfg = configFromEnv();
    const double ckpt_hours = knobDouble(Knob::SoakCheckpointHours);
    const std::string ckpt_file = knobText(Knob::SoakCheckpointFile);

    // Uninterrupted reference run, checkpointing as it goes. With no
    // period configured, one checkpoint is taken at mid-life.
    SoakCampaign campaign(cfg);
    const double lifetime = campaign.lifetimeHours();
    const double period =
        ckpt_hours > 0.0 ? ckpt_hours : lifetime / 2.0;

    ByteSink last_ckpt;
    double last_ckpt_hours = 0.0;
    for (double h = period; h < lifetime; h += period) {
        campaign.advanceTo(h);
        last_ckpt = ByteSink();
        campaign.save(last_ckpt);
        last_ckpt_hours = campaign.hoursDone();
        std::cout << "checkpoint @ " << last_ckpt_hours << "h ("
                  << last_ckpt.bytes().size() << " bytes)\n";
    }
    campaign.runToEnd();
    const SoakResult full = campaign.result();
    std::cout << "full run:    " << full.summary() << "\n";

    if (!last_ckpt.bytes().empty()) {
        if (!ckpt_file.empty()) {
            if (!writeFileAtomically(ckpt_file, last_ckpt.bytes()))
                return 1;
            std::cout << "checkpoint blob written to " << ckpt_file
                      << "\n";
        }

        // Resume proof: restore the last checkpoint into a fresh
        // campaign, age it to end of life, compare fingerprints.
        SoakCampaign resumed(cfg);
        ByteSource src(last_ckpt.bytes());
        resumed.load(src);
        std::cout << "resuming from " << resumed.hoursDone() << "h\n";
        resumed.runToEnd();
        const SoakResult rr = resumed.result();
        std::cout << "resumed run: " << rr.summary() << "\n";
        if (rr.fingerprint != full.fingerprint ||
            rr.totals.due != full.totals.due ||
            rr.totals.ce != full.totals.ce) {
            std::cout << "FAIL: resumed campaign diverged from the "
                         "uninterrupted run\n";
            return 1;
        }
        std::cout << "OK: checkpoint/resume bit-identical "
                     "(fingerprint 0x"
                  << std::hex << full.fingerprint << std::dec << ")\n";
    }

    if (full.totals.divergences != 0) {
        std::cout << "FAIL: no-overclaim divergences detected\n";
        return 1;
    }
    return 0;
}
