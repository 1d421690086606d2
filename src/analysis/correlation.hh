/**
 * @file
 * Temporal-correlation analyses (Sections 5.1 and 5.2 of the paper).
 *
 * Three metrics over the L1D miss stream:
 *
 *  1. Temporal correlation distance (Fig. 6 left): for consecutive
 *     misses (m[i-1], m[i]), the distance between the previous
 *     occurrences of the same two misses — prevPos(m[i]) -
 *     prevPos(m[i-1]). +1 means the pair recurred in exactly the same
 *     order; -1 means it reversed. Misses are labelled with the tuple
 *     (miss PC, miss block, evicted block), as in the paper.
 *
 *  2. Correlated-sequence lengths (Fig. 6 right): lengths of maximal
 *     runs of misses whose correlation distance stays within +-16.
 *
 *  3. Last-touch-to-miss correlation distance (Fig. 7): order the
 *     evictions by their victims' last-touch times; for consecutive
 *     last touches, the distance between the positions of their
 *     corresponding misses in miss order. This is the reordering
 *     LT-cords must tolerate when following sequences recorded in
 *     miss order.
 */

#ifndef LTC_ANALYSIS_CORRELATION_HH
#define LTC_ANALYSIS_CORRELATION_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "trace/trace.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace ltc
{

/** Results of the miss-stream correlation analysis. */
struct CorrelationResult
{
    std::uint64_t misses = 0;
    /** Misses whose pair had no previous occurrence. */
    std::uint64_t uncorrelated = 0;
    /** Misses with correlation distance exactly +1. */
    std::uint64_t perfect = 0;

    /** Histogram of |temporal correlation distance|. */
    Log2Histogram distance{40};
    /** Histogram of correlated-sequence lengths (weighted by length). */
    Log2Histogram sequenceLength{40};
    /** Histogram of |last-touch-to-miss correlation distance|. */
    Log2Histogram lastTouchDistance{40};

    double
    uncorrelatedFraction() const
    {
        return misses ? static_cast<double>(uncorrelated) /
                static_cast<double>(misses)
                      : 0.0;
    }

    double
    perfectFraction() const
    {
        return misses ? static_cast<double>(perfect) /
                static_cast<double>(misses)
                      : 0.0;
    }
};

class CorrelationAnalysis
{
  public:
    /**
     * @param l1d_config L1D geometry generating the miss stream.
     * @param window     Correlation-distance window defining a
     *                   "correlated" miss for sequence lengths (+-16
     *                   in the paper).
     */
    explicit CorrelationAnalysis(const CacheConfig &l1d_config,
                                 std::int64_t window = 16);

    void step(const MemRef &ref);
    std::uint64_t run(TraceSource &src, std::uint64_t refs);

    /** Finalise (flushes the open run, sorts last-touch data). */
    CorrelationResult finish();

  private:
    struct MissLabel
    {
        Addr pc;
        Addr missBlock;
        Addr evictedBlock;

        bool
        operator==(const MissLabel &o) const
        {
            return pc == o.pc && missBlock == o.missBlock &&
                evictedBlock == o.evictedBlock;
        }
    };

    struct MissLabelHash
    {
        std::size_t operator()(const MissLabel &label) const;
    };

    /**
     * Record a cache replacement — a "cache miss" event in the
     * paper's Section 5.1 sense, labelled (miss PC @p pc, miss block
     * @p block, evicted block @p victim).
     */
    void recordMiss(Addr pc, Addr block, Addr victim);

    void closeRun();

    Cache l1d_;
    std::int64_t window_;
    RefPuller puller_; //!< run() pull buffer

    /** Per-resident-block last access index. */
    std::unordered_map<Addr, std::uint64_t> lastTouch_;
    /** (last-touch time, miss index) per eviction, for metric 3. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> evictions_;

    /** Previous-occurrence index per miss label. */
    std::unordered_map<MissLabel, std::uint64_t, MissLabelHash> prevPos_;

    std::uint64_t accessIndex_ = 0;
    std::uint64_t missIndex_ = 0;
    bool havePrevMiss_ = false;
    bool prevMissSeenBefore_ = false;
    std::uint64_t prevMissPrevPos_ = 0;
    std::uint64_t runLength_ = 0;

    CorrelationResult result_;
};

} // namespace ltc

#endif // LTC_ANALYSIS_CORRELATION_HH
