/**
 * @file
 * Cache-block dead-time analysis (Figure 2 of the paper).
 *
 * Dead time is the interval between the last touch to a block and its
 * eventual eviction. The paper shows >85% of L1D dead times exceed
 * the memory access latency, which is what gives last-touch
 * prefetching its lookahead. This analysis replays a stream through a
 * standalone L1D and histograms dead times in estimated cycles (the
 * caller supplies the average cycles per access of the baseline
 * machine, e.g. from a quick timing run).
 */

#ifndef LTC_ANALYSIS_DEADTIME_HH
#define LTC_ANALYSIS_DEADTIME_HH

#include <unordered_map>

#include "cache/cache.hh"
#include "trace/trace.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace ltc
{

class DeadTimeAnalysis
{
  public:
    /**
     * @param l1d_config        L1D geometry.
     * @param cycles_per_access Baseline cycles per memory reference,
     *                          used to express dead times in cycles.
     */
    DeadTimeAnalysis(const CacheConfig &l1d_config,
                     double cycles_per_access);

    void step(const MemRef &ref);
    std::uint64_t run(TraceSource &src, std::uint64_t refs);

    /** Dead-time histogram (cycles, log2 buckets). */
    const Log2Histogram &histogram() const { return hist_; }

    /** Fraction of dead times longer than @p cycles. */
    double fractionLongerThan(Cycle cycles) const;

  private:
    Cache l1d_;
    double cyclesPerAccess_;
    RefPuller puller_; //!< run() pull buffer
    double now_ = 0.0;
    std::unordered_map<Addr, double> lastTouch_;
    Log2Histogram hist_{40};
};

} // namespace ltc

#endif // LTC_ANALYSIS_DEADTIME_HH
