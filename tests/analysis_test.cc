/**
 * @file
 * Tests for the analyses: temporal correlation distances, dead times,
 * and the energy model.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "analysis/correlation.hh"
#include "analysis/deadtime.hh"
#include "analysis/energy.hh"
#include "trace/primitives.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"

namespace ltc
{
namespace
{

CacheConfig
tinyL1()
{
    CacheConfig c;
    c.sizeBytes = 8 * 2 * 64; // 8 sets x 2 ways
    c.assoc = 2;
    return c;
}

//
// CorrelationAnalysis
//

TEST(CorrelationTest, RepeatingScanIsPerfectlyCorrelated)
{
    ScanArray a;
    a.base = 0x100000;
    a.blocks = 64; // 4x the tiny cache
    StridedScanSource src({a}, 0);
    CorrelationAnalysis ca(tinyL1());
    ca.run(src, 64 * 20);
    auto result = ca.finish();
    EXPECT_GT(result.misses, 500u);
    // After warmup, every miss pair recurs in identical order.
    EXPECT_GT(result.perfectFraction(), 0.8);
    EXPECT_LT(result.uncorrelatedFraction(), 0.1);
}

TEST(CorrelationTest, RandomStreamIsUncorrelated)
{
    HashProbeParams p;
    p.base = 0x100000;
    p.blocks = 1 << 14;
    HashProbeSource src(p);
    CorrelationAnalysis ca(tinyL1());
    ca.run(src, 5000);
    auto result = ca.finish();
    EXPECT_GT(result.uncorrelatedFraction(), 0.9);
    EXPECT_LT(result.perfectFraction(), 0.05);
}

TEST(CorrelationTest, PointerChaseIsCorrelated)
{
    PointerChaseParams p;
    p.nodes = 256;
    p.seed = 3;
    PointerChaseSource src(p);
    CorrelationAnalysis ca(tinyL1());
    ca.run(src, 256 * 16);
    auto result = ca.finish();
    EXPECT_GT(result.perfectFraction(), 0.7);
}

TEST(CorrelationTest, SequenceLengthsGrowWithRepetition)
{
    ScanArray a;
    a.base = 0x100000;
    a.blocks = 64;
    StridedScanSource src({a}, 0);
    CorrelationAnalysis ca(tinyL1());
    ca.run(src, 64 * 30);
    auto result = ca.finish();
    // Correlated runs should reach at least one sweep in length.
    EXPECT_GT(result.sequenceLength.percentile(0.9), 32u);
}

TEST(CorrelationTest, LastTouchDistanceSmallForScan)
{
    ScanArray a;
    a.base = 0x100000;
    a.blocks = 64;
    StridedScanSource src({a}, 0);
    CorrelationAnalysis ca(tinyL1());
    ca.run(src, 64 * 20);
    auto result = ca.finish();
    // A pure sequential scan evicts in near last-touch order: the
    // reorder distance should be tightly bounded (Fig. 7's point).
    EXPECT_GT(result.lastTouchDistance.samples(), 100u);
    EXPECT_LE(result.lastTouchDistance.percentile(0.98), 64u);
}

TEST(CorrelationTest, MixedStreamsReorderLastTouches)
{
    // Interleaving two scans in different sets produces the
    // {A1,B1,B2,A2} reorderings of Section 3.2: distances beyond +-1
    // must appear.
    ScanArray a;
    a.base = 0x100000;
    a.blocks = 32;
    a.pc = 0x100;
    ScanArray b;
    b.base = 0x200000;
    b.blocks = 48;
    b.pc = 0x200;
    std::vector<std::unique_ptr<TraceSource>> kids;
    kids.push_back(std::make_unique<StridedScanSource>(
        std::vector<ScanArray>{a}, 0));
    kids.push_back(std::make_unique<StridedScanSource>(
        std::vector<ScanArray>{b}, 0));
    InterleaveSource src(std::move(kids), {3, 2});
    CorrelationAnalysis ca(tinyL1());
    ca.run(src, 20000);
    auto result = ca.finish();
    const double at_one = result.lastTouchDistance.cdfAt(1);
    EXPECT_LT(at_one, 0.95); // some reordering beyond +-1
}

//
// DeadTimeAnalysis
//

TEST(DeadTimeTest, ScanDeadTimesSpanResidency)
{
    // In a sequential scan over 64 blocks with an 16-line cache, a
    // block is touched once and evicted ~16 misses later: dead time
    // ~= 16 accesses * cycles per access.
    ScanArray a;
    a.base = 0x100000;
    a.blocks = 64;
    StridedScanSource src({a}, 0);
    DeadTimeAnalysis dt(tinyL1(), 10.0);
    dt.run(src, 64 * 10);
    EXPECT_GT(dt.histogram().samples(), 100u);
    // Residency of 16 lines at 10 cycles/access: ~160 cycles.
    EXPECT_GT(dt.fractionLongerThan(64), 0.9);
    EXPECT_LT(dt.fractionLongerThan(10000), 0.1);
}

TEST(DeadTimeTest, HotBlocksHaveShortDeadTimes)
{
    // A block touched right before eviction has dead time ~0; the
    // scan's last-touch = only-touch so dead times equal residency.
    // Compare against a 2-block hot loop that always hits: virtually
    // no evictions at all.
    ScanArray a;
    a.base = 0x100000;
    a.blocks = 2;
    StridedScanSource src({a}, 0);
    DeadTimeAnalysis dt(tinyL1(), 10.0);
    dt.run(src, 1000);
    EXPECT_EQ(dt.histogram().samples(), 0u); // nothing evicted
}

TEST(DeadTimeTest, MostDeadTimesExceedMemoryLatency)
{
    // The paper's Fig. 2 argument at miniature scale: with realistic
    // cycles-per-access, most dead times exceed the 200-cycle memory
    // latency, so last-touch prefetches are timely.
    ScanArray a;
    a.base = 0x100000;
    a.blocks = 256;
    StridedScanSource src({a}, 0);
    DeadTimeAnalysis dt(CacheConfig::l1d(), 5.0);
    dt.run(src, 256 * 30);
    EXPECT_GT(dt.fractionLongerThan(200), 0.85);
}

TEST(DeadTimeDeathTest, NonPositiveCyclesPerAccess)
{
    EXPECT_DEATH(DeadTimeAnalysis(tinyL1(), 0.0), "positive");
}

//
// Exact pins on generated workloads
//

/**
 * Both analyses over 200k references of generated workloads through
 * the paper's L1D, pinned exactly: sample counts, the correlation
 * counters and histogram percentiles. The thresholds above only
 * bound the shapes; these rows fail on any change to which evictions
 * the analyses see, or in what order. Regenerate with
 * `LTC_GOLDEN_PRINT=1 ./ltc_tests --gtest_filter='AnalysisGolden*'`
 * after an intended change.
 */
struct AnalysisGolden
{
    const char *workload;
    std::uint64_t deadSamples; //!< dead times recorded
    std::uint64_t deadP50;     //!< dead-time percentiles (cycles)
    std::uint64_t deadP90;
    std::uint64_t misses; //!< CorrelationResult counters
    std::uint64_t perfect;
    std::uint64_t uncorrelated;
    std::uint64_t distanceSamples;
    std::uint64_t distanceP90;
    std::uint64_t sequenceP50; //!< length-weighted sequence lengths
    std::uint64_t sequenceP90;
    std::uint64_t lastTouchSamples;
    std::uint64_t lastTouchP50;
    std::uint64_t lastTouchP90;
    double deadMean; //!< exact sample means, not bucketed
    double lastTouchMean;
};

const AnalysisGolden kAnalysisGolden[] = {
    {"mcf", 113262, 32767, 65535, 113262, 0, 113262, 0,
     0, 0, 0, 113261, 1023, 2047,
     26744.840281824443, 758.71326405382263},
    {"em3d", 172219, 16383, 32767, 172219, 1845, 170374, 1845,
     1, 63, 127, 172218, 511, 2047,
     14132.402261074561, 561.32361309503074},
};

TEST(AnalysisGolden, GeneratedWorkloadsMatchExactly)
{
    constexpr std::uint64_t refs = 200'000;
    const bool print = std::getenv("LTC_GOLDEN_PRINT") != nullptr;
    for (const AnalysisGolden &g : kAnalysisGolden) {
        SCOPED_TRACE(g.workload);
        auto dt_src = makeWorkload(g.workload);
        DeadTimeAnalysis dt(CacheConfig::l1d(), 5.0);
        EXPECT_EQ(dt.run(*dt_src, refs), refs);
        const Log2Histogram &dead = dt.histogram();

        auto ca_src = makeWorkload(g.workload);
        CorrelationAnalysis ca(CacheConfig::l1d());
        EXPECT_EQ(ca.run(*ca_src, refs), refs);
        const CorrelationResult r = ca.finish();

        const AnalysisGolden got = {
            g.workload,
            dead.samples(),
            dead.percentile(0.5),
            dead.percentile(0.9),
            r.misses,
            r.perfect,
            r.uncorrelated,
            r.distance.samples(),
            r.distance.percentile(0.9),
            r.sequenceLength.percentile(0.5),
            r.sequenceLength.percentile(0.9),
            r.lastTouchDistance.samples(),
            r.lastTouchDistance.percentile(0.5),
            r.lastTouchDistance.percentile(0.9),
            dead.mean(),
            r.lastTouchDistance.mean(),
        };
        if (print) {
            std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu, "
                        "%llu, %llu,\n     %llu, %llu, %llu, %llu, "
                        "%llu, %llu,\n     %.17g, %.17g},\n",
                        got.workload,
                        static_cast<unsigned long long>(got.deadSamples),
                        static_cast<unsigned long long>(got.deadP50),
                        static_cast<unsigned long long>(got.deadP90),
                        static_cast<unsigned long long>(got.misses),
                        static_cast<unsigned long long>(got.perfect),
                        static_cast<unsigned long long>(
                            got.uncorrelated),
                        static_cast<unsigned long long>(
                            got.distanceSamples),
                        static_cast<unsigned long long>(got.distanceP90),
                        static_cast<unsigned long long>(got.sequenceP50),
                        static_cast<unsigned long long>(got.sequenceP90),
                        static_cast<unsigned long long>(
                            got.lastTouchSamples),
                        static_cast<unsigned long long>(
                            got.lastTouchP50),
                        static_cast<unsigned long long>(
                            got.lastTouchP90),
                        got.deadMean, got.lastTouchMean);
            continue;
        }
        EXPECT_EQ(got.deadSamples, g.deadSamples);
        EXPECT_EQ(got.deadP50, g.deadP50);
        EXPECT_EQ(got.deadP90, g.deadP90);
        EXPECT_EQ(got.misses, g.misses);
        EXPECT_EQ(got.perfect, g.perfect);
        EXPECT_EQ(got.uncorrelated, g.uncorrelated);
        EXPECT_EQ(got.distanceSamples, g.distanceSamples);
        EXPECT_EQ(got.distanceP90, g.distanceP90);
        EXPECT_EQ(got.sequenceP50, g.sequenceP50);
        EXPECT_EQ(got.sequenceP90, g.sequenceP90);
        EXPECT_EQ(got.lastTouchSamples, g.lastTouchSamples);
        EXPECT_EQ(got.lastTouchP50, g.lastTouchP50);
        EXPECT_EQ(got.lastTouchP90, g.lastTouchP90);
        EXPECT_EQ(got.deadMean, g.deadMean);
        EXPECT_EQ(got.lastTouchMean, g.lastTouchMean);
    }
}

//
// Energy model (Section 5.9)
//

TEST(EnergyTest, PaperArithmetic)
{
    EnergyModel m;
    // Serial lookup + infrequent data read beats the parallel L1D.
    EXPECT_LT(m.ltcDynamicPerAccessPj(0.2), m.l1dAccessPj);
    // The paper's ~48% claim at a conservative 20% miss rate; our
    // constants give ~43%, same ballpark.
    EXPECT_NEAR(m.relativeDynamic(0.2), 0.43, 0.07);
    // Monotone in miss rate.
    EXPECT_LT(m.relativeDynamic(0.0), m.relativeDynamic(1.0));
}

TEST(EnergyTest, LeakageNumbersPreserved)
{
    EnergyModel m;
    EXPECT_DOUBLE_EQ(m.l1dLeakMw, 230.0);
    EXPECT_DOUBLE_EQ(m.ltcLeakMw, 800.0);
    EXPECT_LT(m.sigReadPj, m.l1dDataReadPj);
}

} // namespace
} // namespace ltc
