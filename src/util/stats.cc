#include "util/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ltc
{

Log2Histogram::Log2Histogram(unsigned num_buckets)
    : buckets_(std::max(1u, num_buckets), 0)
{
}

void
Log2Histogram::sample(std::uint64_t value, std::uint64_t count)
{
    unsigned idx = value == 0 ? 0 : floorLog2(value) + 1;
    idx = std::min<unsigned>(idx, numBuckets() - 1);
    buckets_[idx] += count;
    total_ += count;
    sum_ += static_cast<double>(value) * static_cast<double>(count);
}

std::uint64_t
Log2Histogram::bucket(unsigned i) const
{
    return buckets_[std::min<unsigned>(i, numBuckets() - 1)];
}

double
Log2Histogram::cdfAt(std::uint64_t v) const
{
    if (total_ == 0)
        return 0.0;
    // Bucket i holds values in [2^(i-1), 2^i - 1] for i >= 1 and the
    // single value 0 for i == 0. Include every bucket whose upper
    // bound is <= v.
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < numBuckets(); i++) {
        std::uint64_t upper =
            i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
        if (i == numBuckets() - 1)
            upper = ~std::uint64_t{0};
        if (upper > v)
            break;
        acc += buckets_[i];
    }
    return static_cast<double>(acc) / static_cast<double>(total_);
}

std::uint64_t
Log2Histogram::percentile(double p) const
{
    ltc_assert(p >= 0.0 && p <= 1.0, "percentile p out of range: ", p);
    if (total_ == 0)
        return 0;
    const auto needed = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(total_)));
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < numBuckets(); i++) {
        acc += buckets_[i];
        if (acc >= needed)
            return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }
    return ~std::uint64_t{0};
}

double
Log2Histogram::mean() const
{
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    for (unsigned i = 0; i < other.numBuckets(); i++) {
        const unsigned idx = std::min<unsigned>(i, numBuckets() - 1);
        buckets_[idx] += other.buckets_[i];
    }
    total_ += other.total_;
    sum_ += other.sum_;
}

std::vector<std::pair<std::uint64_t, double>>
Log2Histogram::cdfSeries() const
{
    std::vector<std::pair<std::uint64_t, double>> series;
    if (total_ == 0)
        return series;
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < numBuckets(); i++) {
        acc += buckets_[i];
        std::uint64_t upper = i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
        series.emplace_back(
            upper, static_cast<double>(acc) / static_cast<double>(total_));
        if (acc == total_)
            break;
    }
    return series;
}

double
StatSet::get(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatSet::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
StatSet::dump() const
{
    std::ostringstream os;
    for (const auto &[key, value] : values_)
        os << name_ << '.' << key << ' ' << value << '\n';
    return os.str();
}

double
amean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += v;
    return acc / static_cast<double>(values.size());
}

} // namespace ltc
