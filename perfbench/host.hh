/**
 * @file
 * Pinning the benchmark thread to the least-disturbed host CPU.
 */

#ifndef LTC_PERFBENCH_HOST_HH
#define LTC_PERFBENCH_HOST_HH

#include <cstdint>
#include <vector>

namespace perfbench
{

/**
 * Pins the calling thread to whichever allowed CPU runs a short fixed
 * probe fastest (see host.cc). A no-op with fewer than two CPUs.
 */
class CpuPicker
{
  public:
    CpuPicker();

    /** Re-probe and re-pin if the last choice is 0.5 s old. */
    void maybeRepick();

    /** CPU choices made so far. */
    std::size_t picks() const { return probes_.size(); }

    /** Median probe time on the chosen CPUs (0 before any choice). */
    double medianProbeNs() const;

  private:
    std::vector<int> cpus_;
    std::int64_t lastPickNs_ = 0;
    std::vector<double> probes_; //!< winning probe ns per choice
};

} // namespace perfbench

#endif // LTC_PERFBENCH_HOST_HH
