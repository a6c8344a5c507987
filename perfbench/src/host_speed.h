/**
 * @file
 * Host-speed reference: a fixed kernel owned by the benchmark, timed
 * beside every unit of a run, so that throughput can be reported at a
 * reference host speed.
 *
 * On a shared virtual machine the speed of memory-touching code moves
 * with the neighbours' load in steps that last from seconds to minutes.
 * On a 4-vCPU KVM Xeon guest a fixed ras_live unit ran anywhere from
 * 0.14 to 0.42 M instructions per second within ten minutes, and the
 * same step hit every vCPU at once, so neither longer runs nor more
 * threads average it out. A run therefore times this kernel before and
 * after each unit and charges the unit its host seconds scaled by how
 * fast the kernel ran around it. The kernel is a set-associative LRU
 * cache model over a pseudo-random address stream, like the timing
 * simulator's LLC model, and its working set (6 MiB) sits in the same
 * levels of the memory hierarchy as the workloads'; it tracks their
 * drift far better than an ALU loop or a pointer chase does.
 *
 * No code of the library runs in the kernel, so a change to the library
 * cannot change the reference: it moves the adjusted throughput exactly
 * as it moves the raw one.
 */

#ifndef PERFBENCH_HOST_SPEED_H
#define PERFBENCH_HOST_SPEED_H

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace perfbench {

/**
 * Kernel steps per second that count as host speed 1.0: a round figure
 * below the 1.1-1.8 x 10^7 the kernel did on a 4-vCPU KVM Xeon guest at
 * 2.0 GHz. Any fixed value would do; it only sets the scale.
 */
constexpr double kNominalStepsPerSecond = 1.0e7;

/** Kernel steps per sample: about 40 ms at nominal speed. */
constexpr citadel::u64 kProbeSteps = 400'000;

class HostSpeedProbe
{
  public:
    /** Allocates the model and runs one untimed sample to fault in and
     *  warm its arrays. */
    HostSpeedProbe();

    /** Run kProbeSteps steps; the host's speed relative to
     *  kNominalStepsPerSecond. */
    double sample();

    /** Model hits so far: a pure function of the number of samples. */
    citadel::u64 hits() const { return hits_; }

  private:
    void step(citadel::u64 n);

    static constexpr citadel::u32 kSets = 1u << 16;
    static constexpr citadel::u32 kWays = 8;

    std::vector<citadel::u64> tags_;
    std::vector<citadel::u32> stamps_;
    citadel::u64 x_ = 0x9E3779B97F4A7C15ull;
    citadel::u32 now_ = 0;
    citadel::u64 hits_ = 0;
};

/**
 * Work per second at host speed 1.0: total `work` over the units'
 * host seconds `secs`, each scaled by the host speed `speed` measured
 * around it. The three vectors are parallel; 0 without time.
 */
double referenceRate(const std::vector<double> &work,
                     const std::vector<double> &secs,
                     const std::vector<double> &speed);

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_H
