/**
 * @file
 * Tests for the simulation engines: trace-driven coverage engine,
 * cycle timing engine and multi-programming.
 */

#include <gtest/gtest.h>

#include "core/ltcords.hh"
#include "sim/experiment.hh"
#include "sim/multiprog.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"
#include "trace/primitives.hh"
#include "trace/workloads.hh"

namespace ltc
{
namespace
{

std::unique_ptr<TraceSource>
scanSource(std::uint64_t blocks, std::uint32_t apb = 2,
           std::uint32_t gap = 1)
{
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = blocks;
    a.accessesPerBlock = apb;
    return std::make_unique<StridedScanSource>(
        std::vector<ScanArray>{a}, gap);
}

//
// TraceEngine
//

TEST(TraceEngineTest, BaselineMissCounting)
{
    auto src = scanSource(4096); // 4K blocks >> 1K-line L1
    TraceEngine engine(HierarchyConfig{}, nullptr);
    engine.run(*src, 4 * 8192);
    const auto &s = engine.stats();
    EXPECT_EQ(s.accesses, 4u * 8192u);
    // Every block misses once per sweep: 4 sweeps x 4096 misses.
    EXPECT_EQ(s.l1Misses, 4u * 4096u);
    EXPECT_DOUBLE_EQ(s.l1MissRate(), 0.5);
}

TEST(TraceEngineTest, InstructionsIncludeGaps)
{
    auto src = scanSource(64, 1, 9);
    TraceEngine engine(HierarchyConfig{}, nullptr);
    engine.run(*src, 100);
    EXPECT_EQ(engine.stats().instructions, 1000u);
}

TEST(TraceEngineTest, OpportunityMatchesBaselineMisses)
{
    auto src = scanSource(2048);
    LtCords ltc(paperLtcords(HierarchyConfig{}));
    auto stats = runWithOpportunity(HierarchyConfig{}, &ltc, *src,
                                    4 * 4096);
    EXPECT_EQ(stats.opportunity, 4u * 2048u);
}

TEST(TraceEngineTest, CategoriesPartitionOpportunity)
{
    auto src = scanSource(2048);
    LtCords ltc(paperLtcords(HierarchyConfig{}));
    auto stats = runWithOpportunity(HierarchyConfig{}, &ltc, *src,
                                    6 * 4096);
    // correct + misses ~= opportunity + early: each baseline miss is
    // either eliminated (correct) or still a miss, and early
    // evictions add extra misses. Slack remains because prefetch
    // fills replace predicted-dead blocks rather than the LRU victim,
    // so residency under prediction diverges from the baseline: some
    // baseline misses become plain hits (blocks kept alive longer)
    // and some early-evicted blocks return before their demand.
    const double lhs =
        static_cast<double>(stats.correct + stats.l1Misses);
    const double rhs =
        static_cast<double>(stats.opportunity + stats.early);
    EXPECT_NEAR(lhs / rhs, 1.0, 0.15);
    EXPECT_LE(stats.incorrect() + stats.train(), stats.l1Misses);
}

TEST(TraceEngineTest, BucketsAttributeSeparately)
{
    TraceEngine engine(HierarchyConfig{}, nullptr, 2);
    auto a = scanSource(64);
    auto b = scanSource(64);
    engine.selectBucket(0);
    engine.run(*a, 100);
    engine.selectBucket(1);
    engine.run(*b, 200);
    EXPECT_EQ(engine.stats(0).accesses, 100u);
    EXPECT_EQ(engine.stats(1).accesses, 200u);
}

TEST(TraceEngineTest, BaseDataTrafficCharged)
{
    auto src = scanSource(4096);
    TraceEngine engine(HierarchyConfig{}, nullptr);
    engine.run(*src, 2 * 8192);
    // Footprint 4096 blocks > L2? No: 4096 blocks = 256KB fits L2, so
    // only cold misses go off chip.
    EXPECT_EQ(engine.stats().traffic.bytes(Traffic::BaseData),
              4096u * 64u);
}

TEST(TraceEngineDeathTest, BucketOutOfRange)
{
    TraceEngine engine(HierarchyConfig{}, nullptr, 2);
    EXPECT_DEATH(engine.selectBucket(2), "bucket out of range");
}

//
// TimingSim
//

TEST(TimingSimTest, AllHitsApproachWidth)
{
    TimingConfig cfg;
    cfg.hier.perfectL1 = true;
    TimingSim sim(cfg, nullptr);
    auto src = scanSource(64, 1, 7);
    sim.run(*src, 20000);
    const auto s = sim.stats();
    // 8-wide core, all L1 hits: IPC near 8.
    EXPECT_GT(s.ipc, 6.0);
    EXPECT_LE(s.ipc, 8.0);
}

TEST(TimingSimTest, MissesCostCycles)
{
    TimingConfig cfg;
    TimingSim miss_sim(cfg, nullptr);
    auto big = scanSource(1 << 16, 1, 7); // 4MB, misses everywhere
    miss_sim.run(*big, 20000);

    TimingSim hit_sim(cfg, nullptr);
    auto small = scanSource(64, 1, 7);
    hit_sim.run(*small, 20000);

    EXPECT_LT(miss_sim.stats().ipc, hit_sim.stats().ipc / 3.0);
}

TEST(TimingSimTest, DependentChainsSerialise)
{
    // Same footprint, same miss count; dependent chain must be much
    // slower than the independent scan.
    PointerChaseParams p;
    p.nodes = 1 << 15;
    p.accessesPerNode = 1;
    p.nonMemGap = 1;
    auto chase = std::make_unique<PointerChaseSource>(p);
    TimingConfig cfg;
    TimingSim dep_sim(cfg, nullptr);
    dep_sim.run(*chase, 30000);

    TimingSim ind_sim(cfg, nullptr);
    auto scan = scanSource(1 << 15, 1, 1);
    ind_sim.run(*scan, 30000);

    EXPECT_LT(dep_sim.stats().ipc, ind_sim.stats().ipc / 4.0);
}

TEST(TimingSimTest, LtCordsImprovesRepetitiveScan)
{
    auto run = [](Prefetcher *pred) {
        TimingConfig cfg;
        TimingSim sim(cfg, pred);
        ScanArray a;
        a.base = 0x10000000;
        a.blocks = 1 << 15; // 2MB > L2
        a.accessesPerBlock = 2;
        a.pc = 0x1000;
        StridedScanSource src({a}, 6);
        sim.run(src, 6 * (2u << 15));
        return sim.stats();
    };
    auto base = run(nullptr);
    LtCords ltc(paperLtcords(HierarchyConfig{}, true));
    auto with = run(&ltc);
    EXPECT_GT(with.ipc, base.ipc * 1.1);
    EXPECT_GT(with.correct, 0u);
}

TEST(TimingSimTest, PerfectL1BeatsEverything)
{
    auto src = makeWorkload("swim");
    TimingConfig cfg;
    cfg.hier = perfectL1Hierarchy();
    TimingSim perfect(cfg, nullptr);
    perfect.run(*src, 200000);

    src = makeWorkload("swim");
    TimingConfig base_cfg;
    TimingSim base(base_cfg, nullptr);
    base.run(*src, 200000);

    EXPECT_GT(perfect.stats().ipc, base.stats().ipc);
}

TEST(TimingSimTest, TrafficAccountingPopulated)
{
    TimingConfig cfg;
    LtCords ltc(paperLtcords(cfg.hier, true));
    TimingSim sim(cfg, &ltc);
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = 1 << 15;
    a.accessesPerBlock = 2;
    StridedScanSource src({a}, 4);
    sim.run(src, 5 * (2u << 15));
    const auto s = sim.stats();
    EXPECT_GT(s.traffic.bytes(Traffic::BaseData), 0u);
    EXPECT_GT(s.traffic.bytes(Traffic::SequenceCreate), 0u);
    EXPECT_GT(s.traffic.bytes(Traffic::SequenceFetch), 0u);
    EXPECT_GT(s.memBusBusy, 0u);
}

TEST(TimingSimTest, StatsBasicsConsistent)
{
    TimingConfig cfg;
    TimingSim sim(cfg, nullptr);
    auto src = scanSource(4096);
    sim.run(*src, 10000);
    const auto s = sim.stats();
    EXPECT_EQ(s.accesses, 10000u);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_GT(s.instructions, s.accesses);
    EXPECT_NEAR(s.ipc,
                static_cast<double>(s.instructions) /
                    static_cast<double>(s.cycles),
                1e-9);
}

//
// Multi-programming
//

TEST(MultiProgTest, PerAppAttribution)
{
    MultiProgConfig cfg;
    cfg.quantumRefs = {500, 1000};
    cfg.switches = 8;
    std::vector<std::unique_ptr<TraceSource>> apps;
    apps.push_back(scanSource(2048));
    apps.push_back(scanSource(2048));
    auto stats = runMultiProg(cfg, nullptr, std::move(apps));
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].accesses, 4u * 500u);
    EXPECT_EQ(stats[1].accesses, 4u * 1000u);
    EXPECT_EQ(stats[0].opportunity, stats[0].l1Misses);
}

TEST(MultiProgTest, SharedPredictorCoversBothApps)
{
    MultiProgConfig cfg;
    cfg.quantumRefs = {4096, 4096};
    cfg.switches = 24;
    LtCords ltc(paperLtcords(cfg.hier));
    std::vector<std::unique_ptr<TraceSource>> apps;
    apps.push_back(scanSource(1024));
    apps.push_back(scanSource(1024));
    auto stats = runMultiProg(cfg, &ltc, std::move(apps));
    EXPECT_GT(stats[0].coverage(), 0.3);
    EXPECT_GT(stats[1].coverage(), 0.3);
}

TEST(MultiProgTest, AddressSpacesDisjoint)
{
    // Same generator in both apps; without the shift they would
    // share cache blocks, with it they must behave as two footprints.
    MultiProgConfig cfg;
    cfg.quantumRefs = {1000, 1000};
    cfg.switches = 4;
    std::vector<std::unique_ptr<TraceSource>> apps;
    apps.push_back(scanSource(512));
    apps.push_back(scanSource(512));
    auto stats = runMultiProg(cfg, nullptr, std::move(apps));
    // Both apps have their own cold misses: at least one sweep's
    // worth each.
    EXPECT_GE(stats[0].l1Misses, 512u);
    EXPECT_GE(stats[1].l1Misses, 512u);
}

TEST(MultiProgDeathTest, QuantumMismatch)
{
    MultiProgConfig cfg;
    cfg.quantumRefs = {100};
    std::vector<std::unique_ptr<TraceSource>> apps;
    apps.push_back(scanSource(64));
    apps.push_back(scanSource(64));
    EXPECT_DEATH(runMultiProg(cfg, nullptr, std::move(apps)),
                 "one entry per app");
}

//
// Experiment presets
//

TEST(ExperimentTest, PresetGeometry)
{
    EXPECT_EQ(bigL2Hierarchy().l2.sizeBytes, 4u * 1024u * 1024u);
    EXPECT_TRUE(perfectL1Hierarchy().perfectL1);
    EXPECT_EQ(paperTiming().core.width, 8u);
    EXPECT_EQ(paperTiming().core.robSize, 256u);
    EXPECT_EQ(paperTiming().prefetchQueueEntries, 128u);
}

TEST(ExperimentTest, FactoryBuildsAllNames)
{
    for (const auto &name : predictorNames()) {
        auto pred = makePredictor(name, paperHierarchy());
        if (name == "none") {
            EXPECT_EQ(pred, nullptr);
        } else {
            ASSERT_NE(pred, nullptr) << name;
            EXPECT_FALSE(pred->name().empty());
        }
    }
}

TEST(ExperimentDeathTest, UnknownPredictorFatal)
{
    EXPECT_EXIT(makePredictor("magic", paperHierarchy()),
                ::testing::ExitedWithCode(1), "unknown predictor");
}

TEST(ExperimentTest, LtcordsSizedForHierarchy)
{
    auto cfg = paperLtcords(paperHierarchy());
    EXPECT_EQ(cfg.l1Sets, 512u);
    EXPECT_EQ(cfg.lineBytes, 64u);
    EXPECT_FALSE(cfg.modelStreamLatency);
    EXPECT_TRUE(paperLtcords(paperHierarchy(), true).modelStreamLatency);
}

} // namespace
} // namespace ltc
