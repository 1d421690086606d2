/**
 * @file
 * Tests for the Markov prefetcher baseline.
 */

#include <gtest/gtest.h>

#include "pred/markov.hh"
#include "sim/trace_engine.hh"
#include "trace/primitives.hh"
#include "util/random.hh"

namespace ltc
{
namespace
{

std::vector<PrefetchRequest>
feedMisses(MarkovPrefetcher &mp, const std::vector<Addr> &addrs)
{
    std::vector<PrefetchRequest> all;
    std::vector<PrefetchRequest> drained;
    for (Addr a : addrs) {
        MemRef ref;
        ref.pc = 0x400;
        ref.addr = a;
        HierOutcome out;
        out.level = HitLevel::Memory;
        mp.observe(ref, out);
        mp.drainRequestsInto(drained);
        all.insert(all.end(), drained.begin(), drained.end());
    }
    return all;
}

TEST(MarkovTest, LearnsSuccessorPairs)
{
    MarkovPrefetcher mp(MarkovConfig{});
    // Miss sequence A,B,C repeated: on the second pass, A predicts B.
    std::vector<Addr> seq = {0x1000, 0x9000, 0x5000,
                             0x1000, 0x9000, 0x5000};
    auto reqs = feedMisses(mp, seq);
    ASSERT_FALSE(reqs.empty());
    bool predicted_b = false;
    for (auto &r : reqs)
        predicted_b |= (r.target & ~63ull) == 0x9000;
    EXPECT_TRUE(predicted_b);
    EXPECT_FALSE(reqs.front().intoL1); // L2 only
}

TEST(MarkovTest, MostRecentSuccessorFirst)
{
    MarkovConfig cfg;
    cfg.ways = 2;
    cfg.degree = 1;
    MarkovPrefetcher mp(cfg);
    // A->B, then A->C: the next A must predict C first (degree 1).
    feedMisses(mp, {0x1000, 0xB000, 0x1000, 0xC000});
    auto reqs = feedMisses(mp, {0x1000});
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].target & ~63ull, 0xC000u);
}

TEST(MarkovTest, SuccessorListBounded)
{
    MarkovConfig cfg;
    cfg.ways = 2;
    cfg.degree = 4;
    MarkovPrefetcher mp(cfg);
    feedMisses(mp, {0x1000, 0xA000, 0x1000, 0xB000, 0x1000, 0xC000});
    auto reqs = feedMisses(mp, {0x1000});
    EXPECT_LE(reqs.size(), 2u); // at most `ways` successors kept
}

TEST(MarkovTest, HitsIgnored)
{
    MarkovPrefetcher mp(MarkovConfig{});
    MemRef ref;
    ref.addr = 0x1000;
    HierOutcome out;
    out.level = HitLevel::L1;
    for (int i = 0; i < 10; i++)
        mp.observe(ref, out);
    EXPECT_FALSE(mp.hasRequests());
}

TEST(MarkovTest, RepeatedMissToSameBlockNotSelfSuccessor)
{
    MarkovPrefetcher mp(MarkovConfig{});
    auto reqs = feedMisses(mp, {0x1000, 0x1000, 0x1000});
    for (auto &r : reqs)
        EXPECT_NE(r.target & ~63ull, 0x1000u);
}

TEST(MarkovTest, CoversRepetitiveChaseStream)
{
    // A repeating pointer-chase miss stream is exactly a first-order
    // Markov chain: the predictor should convert most L2 misses into
    // L2 hits after training.
    PointerChaseParams p;
    p.base = 0x10000000;
    p.nodes = 32 << 10; // 2MB footprint, exceeds the 1MB L2
    p.accessesPerNode = 1;
    p.seed = 5;
    PointerChaseSource src(p);
    MarkovPrefetcher mp(MarkovConfig{});
    TraceEngine engine(HierarchyConfig{}, &mp);
    engine.run(src, 6 * (32 << 10));
    // L1-miss elimination stays 0 (fills stop at L2)...
    EXPECT_EQ(engine.stats().correct, 0u);
    // ...but the L2 miss count collapses relative to a baseline run.
    src.reset();
    TraceEngine base(HierarchyConfig{}, nullptr);
    base.run(src, 6 * (32 << 10));
    EXPECT_LT(engine.stats().l2Misses, base.stats().l2Misses / 2);
}

TEST(MarkovTest, RandomStreamLearnsNothingUseful)
{
    MarkovPrefetcher mp(MarkovConfig{});
    Rng rng(3);
    std::vector<Addr> seq;
    for (int i = 0; i < 5000; i++)
        seq.push_back((rng.below(1 << 18)) * 64);
    auto reqs = feedMisses(mp, seq);
    // Predictions fire only on (rare) repeated pairs.
    EXPECT_LT(reqs.size(), seq.size() / 4);
}

TEST(MarkovTest, ExportsStats)
{
    MarkovPrefetcher mp(MarkovConfig{});
    feedMisses(mp, {0x1000, 0x2000, 0x1000, 0x2000});
    StatSet s("markov");
    mp.exportStats(s);
    EXPECT_GT(s.get("misses_observed"), 0.0);
    EXPECT_GT(s.get("updates"), 0.0);
}

TEST(MarkovTest, StorageEstimate)
{
    MarkovConfig cfg;
    cfg.entries = 1024;
    cfg.ways = 2;
    MarkovPrefetcher mp(cfg);
    EXPECT_EQ(mp.storageBytes(), 1024u * 2u * 8u);
}

} // namespace
} // namespace ltc
