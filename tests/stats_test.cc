/**
 * @file
 * Unit tests for the statistics primitives and table rendering.
 */

#include <gtest/gtest.h>

#include "util/stats.hh"
#include "util/table.hh"

namespace ltc
{
namespace
{

TEST(Log2HistogramTest, ZeroGoesToFirstBucket)
{
    Log2Histogram h;
    h.sample(0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_DOUBLE_EQ(h.cdfAt(0), 1.0);
}

TEST(Log2HistogramTest, BucketBoundaries)
{
    Log2Histogram h;
    h.sample(1);  // bucket 1: [1,1]
    h.sample(2);  // bucket 2: [2,3]
    h.sample(3);  // bucket 2
    h.sample(4);  // bucket 3: [4,7]
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Log2HistogramTest, MergePreservesTotalsAndMean)
{
    Log2Histogram a, b;
    for (std::uint64_t v : {0ull, 1ull, 5ull, 100ull})
        a.sample(v);
    for (std::uint64_t v : {3ull, 1000ull, 1ull << 20})
        b.sample(v, 2);

    Log2Histogram merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.samples(), a.samples() + b.samples());
    // merge() folds the exact sums, unlike re-sampling bucket lower
    // bounds, so the mean stays exact.
    EXPECT_DOUBLE_EQ(merged.mean() *
                         static_cast<double>(merged.samples()),
                     a.mean() * static_cast<double>(a.samples()) +
                         b.mean() * static_cast<double>(b.samples()));
    for (unsigned i = 0; i < merged.numBuckets(); i++)
        EXPECT_EQ(merged.bucket(i), a.bucket(i) + b.bucket(i));

    // Merging an empty histogram is a no-op.
    Log2Histogram empty;
    Log2Histogram copy = merged;
    copy.merge(empty);
    EXPECT_EQ(copy.samples(), merged.samples());
}

TEST(Log2HistogramTest, MergeClampsWiderHistograms)
{
    Log2Histogram narrow(4);
    Log2Histogram wide(40);
    wide.sample(1ull << 30);
    narrow.merge(wide);
    EXPECT_EQ(narrow.samples(), 1u);
    EXPECT_EQ(narrow.bucket(3), 1u); // clamped into the last bucket
}

TEST(Log2HistogramTest, CdfMonotone)
{
    Log2Histogram h;
    for (std::uint64_t v = 1; v <= 4096; v *= 2)
        h.sample(v, v); // weighted
    double prev = 0.0;
    for (std::uint64_t v = 1; v <= 1 << 20; v *= 2) {
        const double c = h.cdfAt(v);
        EXPECT_GE(c, prev);
        prev = c;
    }
    EXPECT_DOUBLE_EQ(h.cdfAt(1 << 20), 1.0);
}

TEST(Log2HistogramTest, Percentile)
{
    Log2Histogram h;
    for (int i = 0; i < 90; i++)
        h.sample(1);
    for (int i = 0; i < 10; i++)
        h.sample(1000);
    // 90% of samples are at value 1 (bucket upper bound 1).
    EXPECT_EQ(h.percentile(0.5), 1u);
    EXPECT_GE(h.percentile(0.95), 512u);
}

TEST(Log2HistogramTest, MeanIsExact)
{
    Log2Histogram h;
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Log2HistogramTest, WeightedSamples)
{
    Log2Histogram h;
    h.sample(5, 7);
    EXPECT_EQ(h.samples(), 7u);
}

TEST(Log2HistogramTest, CdfSeriesEndsAtOne)
{
    Log2Histogram h;
    h.sample(1);
    h.sample(100);
    h.sample(10000);
    const auto series = h.cdfSeries();
    ASSERT_FALSE(series.empty());
    EXPECT_DOUBLE_EQ(series.back().second, 1.0);
    // Cumulative fractions non-decreasing.
    for (std::size_t i = 1; i < series.size(); i++)
        EXPECT_GE(series[i].second, series[i - 1].second);
}

TEST(Log2HistogramTest, OverflowClampsToLastBucket)
{
    Log2Histogram h(4); // buckets 0..3
    h.sample(~std::uint64_t{0});
    EXPECT_EQ(h.bucket(3), 1u);
}

TEST(StatSetTest, SetAddGet)
{
    StatSet s("pred");
    EXPECT_FALSE(s.has("hits"));
    EXPECT_DOUBLE_EQ(s.get("hits"), 0.0);
    s.set("hits", 10);
    EXPECT_TRUE(s.has("hits"));
    EXPECT_DOUBLE_EQ(s.get("hits"), 10.0);
}

TEST(StatSetTest, DumpFormat)
{
    StatSet s("core");
    s.set("ipc", 1.5);
    const std::string dump = s.dump();
    EXPECT_NE(dump.find("core.ipc 1.5"), std::string::npos);
}

TEST(MeansTest, Amean)
{
    EXPECT_DOUBLE_EQ(amean({}), 0.0);
    EXPECT_DOUBLE_EQ(amean({1.0, 2.0, 3.0}), 2.0);
}

TEST(TableTest, RenderAligned)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    // Columns aligned: "value" starts at the same offset in each row.
    const auto header_pos = out.find("value");
    ASSERT_NE(header_pos, std::string::npos);
}

TEST(TableTest, Csv)
{
    Table t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(TableTest, NumAndPct)
{
    EXPECT_EQ(Table::num(1.2345, 2), "1.23");
    EXPECT_EQ(Table::pct(0.5, 0), "50%");
    EXPECT_EQ(Table::pct(0.123, 1), "12.3%");
}

TEST(TableDeathTest, RowWidthMismatch)
{
    Table t;
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

} // namespace
} // namespace ltc
