/**
 * @file
 * Host-speed probe.
 *
 * On a shared host the speed of memory-bound code drifts by 10-30%
 * over minutes, longer than a run, so even each op's best time over a
 * run moves between runs. The probe is a fixed memory-latency loop (a
 * pointer chase over a 16 MiB random cycle per worker, plus
 * small-allocation churn) timed between passes on every worker. Host
 * times are scaled by (reference time / the run's best probe time),
 * which cancels most of the drift: over alternating runs the scaled
 * median op time moved by a third as much as the raw one, on both
 * paper-sweep and absint-lint.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Best probe time on the host the benchmark's bounds were set on (a
 *  4-vCPU shared VM); scaled times are host times at that speed. */
constexpr double kProbeReferenceNs = 22e6;

class SpeedProbe
{
  public:
    explicit SpeedProbe(unsigned workers);

    /** Run the loop once on every worker; the fastest worker's ns. */
    double run() const;

    /** Bytes the probe keeps resident (its rings). */
    std::size_t bytes() const;

  private:
    unsigned workers_;
    std::vector<std::vector<std::uint32_t>> rings_;  ///< one per worker
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
