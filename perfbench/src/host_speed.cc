#include "host_speed.h"

#include "trace.h"

namespace perfbench {

HostSpeedProbe::HostSpeedProbe()
    : tags_(std::size_t{kSets} * kWays, ~citadel::u64{0}),
      stamps_(std::size_t{kSets} * kWays, 0)
{
    step(kProbeSteps);
}

double
HostSpeedProbe::sample()
{
    const auto t0 = Clock::now();
    step(kProbeSteps);
    const double secs = seconds(t0, Clock::now());
    return secs > 0.0 ? static_cast<double>(kProbeSteps) / secs /
                            kNominalStepsPerSecond
                      : 0.0;
}

void
HostSpeedProbe::step(citadel::u64 n)
{
    for (citadel::u64 i = 0; i < n; ++i) {
        x_ ^= x_ << 13;
        x_ ^= x_ >> 7;
        x_ ^= x_ << 17;
        // Three accesses in four go to a hot region of 4 lines per set,
        // the rest to one of 64 per set: a mix of hits and misses.
        const citadel::u64 line = (x_ & 3) ? (x_ >> 20) % (kSets * 4ull)
                                           : (x_ >> 16) % (kSets * 64ull);
        const std::size_t base = std::size_t(line % kSets) * kWays;
        citadel::u64 *tag = &tags_[base];
        citadel::u32 *stamp = &stamps_[base];
        ++now_;
        citadel::u32 victim = 0;
        citadel::u32 oldest = ~citadel::u32{0};
        bool hit = false;
        for (citadel::u32 w = 0; w < kWays; ++w) {
            if (tag[w] == line) {
                stamp[w] = now_;
                hit = true;
                break;
            }
            if (stamp[w] < oldest) {
                oldest = stamp[w];
                victim = w;
            }
        }
        if (hit) {
            ++hits_;
        } else {
            tag[victim] = line;
            stamp[victim] = now_;
        }
    }
}

double
referenceRate(const std::vector<double> &work,
              const std::vector<double> &secs,
              const std::vector<double> &speed)
{
    double done = 0.0;
    double ref_s = 0.0;
    for (std::size_t i = 0; i < work.size(); ++i) {
        done += work[i];
        ref_s += secs[i] * speed[i];
    }
    return ref_s > 0.0 ? done / ref_s : 0.0;
}

} // namespace perfbench
