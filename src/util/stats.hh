/**
 * @file
 * Statistics primitives for the simulators and analyses.
 *
 * The paper's figures are cumulative distributions over log2-spaced
 * buckets (dead times, correlation distances, sequence lengths), and
 * its tables are scalar percentages. Log2Histogram and Distribution
 * cover the former; plain counters the latter. A StatSet gives each
 * model a named, dumpable group of values in the spirit of gem5's
 * stats package.
 */

#ifndef LTC_UTIL_STATS_HH
#define LTC_UTIL_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ltc
{

/**
 * Histogram over log2-spaced buckets: bucket i counts samples v with
 * floor(log2(v)) == i; bucket 0 additionally holds v == 0 samples when
 * @c countZero is set. Used for the CDF figures (Figs. 2, 6, 7).
 */
class Log2Histogram
{
  public:
    explicit Log2Histogram(unsigned num_buckets = 40);

    /** Record one sample. */
    void sample(std::uint64_t value, std::uint64_t count = 1);

    /** Total number of samples recorded. */
    std::uint64_t samples() const { return total_; }

    /** Count in bucket @p i (clamped to the last bucket). */
    std::uint64_t bucket(unsigned i) const;

    unsigned numBuckets() const
    {
        return static_cast<unsigned>(buckets_.size());
    }

    /** Fraction of samples with value <= @p v (empirical CDF). */
    double cdfAt(std::uint64_t v) const;

    /** Smallest value v such that cdfAt(v) >= p (p in [0,1]). */
    std::uint64_t percentile(double p) const;

    /** Mean of the recorded samples (exact, not bucketed). */
    double mean() const;

    /**
     * Fold @p other into this histogram bucket-by-bucket. Unlike
     * re-sampling bucket lower bounds, merging preserves the exact
     * sample total and mean. Bucket counts beyond this histogram's
     * range clamp into the last bucket (same as sample()).
     */
    void merge(const Log2Histogram &other);

    /**
     * CDF series for plotting: (upper bound of bucket, cumulative
     * fraction) pairs for non-empty prefixes.
     */
    std::vector<std::pair<std::uint64_t, double>> cdfSeries() const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * A named set of scalar statistics that a model exposes for dumping.
 * Values are stored as doubles; counters cast losslessly for the
 * magnitudes this simulator reaches.
 */
class StatSet
{
  public:
    explicit StatSet(std::string name) : name_(std::move(name)) {}

    void set(const std::string &key, double value) { values_[key] = value; }
    void add(const std::string &key, double delta) { values_[key] += delta; }

    /** Value of @p key; 0 if never set. */
    double get(const std::string &key) const;
    bool has(const std::string &key) const;

    const std::string &name() const { return name_; }
    const std::map<std::string, double> &values() const { return values_; }

    /** Render "name.key value" lines, gem5 stats.txt style. */
    std::string dump() const;

  private:
    std::string name_;
    std::map<std::string, double> values_;
};

/** Arithmetic mean (0 if empty). */
double amean(const std::vector<double> &values);

} // namespace ltc

#endif // LTC_UTIL_STATS_HH
