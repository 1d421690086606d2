/**
 * @file
 * Tests for the LT-cords core: signature cache, off-chip sequence
 * storage and the full predictor.
 */

#include <gtest/gtest.h>

#include "core/ltcords.hh"
#include "core/sequence_storage.hh"
#include "core/signature_cache.hh"
#include "sim/trace_engine.hh"
#include "trace/primitives.hh"

namespace ltc
{
namespace
{

//
// SignatureCache
//

SigCacheEntry
entry(std::uint64_t key, Addr repl = 0x1000, std::uint32_t frame = 0,
      std::uint32_t offset = 0)
{
    SigCacheEntry e;
    e.key = key;
    e.replacement = repl;
    e.victim = repl + 64;
    e.confidence = 2;
    e.frame = frame;
    e.offset = offset;
    return e;
}

TEST(SignatureCacheTest, InsertLookup)
{
    SignatureCache sc(16, 2);
    sc.insert(entry(0x1234));
    auto *e = sc.lookup(0x1234);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->replacement, 0x1000u);
    EXPECT_EQ(sc.lookup(0x9999), nullptr);
    EXPECT_EQ(sc.hits(), 1u);
    EXPECT_EQ(sc.lookups(), 2u);
}

TEST(SignatureCacheTest, FifoEvictionOrder)
{
    SignatureCache sc(4, 2); // 2 sets x 2 ways
    // Keys 0, 2, 4 all map to set 0 (low bit selects the set).
    sc.insert(entry(0));
    sc.insert(entry(2));
    sc.insert(entry(4)); // evicts key 0 (oldest fill)
    EXPECT_EQ(sc.lookup(0), nullptr);
    EXPECT_NE(sc.lookup(2), nullptr);
    EXPECT_NE(sc.lookup(4), nullptr);
    EXPECT_EQ(sc.fifoEvictions(), 1u);
}

TEST(SignatureCacheTest, FifoIgnoresLookupRecency)
{
    SignatureCache sc(4, 2);
    sc.insert(entry(0));
    sc.insert(entry(2));
    sc.lookup(0); // touching must not save it under FIFO
    sc.insert(entry(4));
    EXPECT_EQ(sc.lookup(0), nullptr);
}

TEST(SignatureCacheTest, ReinsertRefreshesInPlace)
{
    SignatureCache sc(4, 2);
    sc.insert(entry(0, 0x1000));
    sc.insert(entry(2, 0x2000));
    sc.insert(entry(0, 0x3000)); // refresh, keeps FIFO position
    EXPECT_EQ(sc.occupancy(), 2u);
    EXPECT_EQ(sc.lookup(0)->replacement, 0x3000u);
    sc.insert(entry(4, 0x4000)); // still evicts key 0 first
    EXPECT_EQ(sc.lookup(0), nullptr);
}

TEST(SignatureCacheTest, InvalidateFrame)
{
    SignatureCache sc(16, 2);
    sc.insert(entry(1, 0x1000, /*frame=*/3));
    sc.insert(entry(2, 0x2000, /*frame=*/5));
    sc.invalidateFrame(3);
    EXPECT_EQ(sc.lookup(1), nullptr);
    EXPECT_NE(sc.lookup(2), nullptr);
}

TEST(SignatureCacheTest, StorageBytesMatchesPaper)
{
    // 32K entries x 42 bits = 168KB... the paper's 204KB counts the
    // index overhead differently; our model reports the entry bits.
    SignatureCache sc(32 * 1024, 2);
    EXPECT_EQ(sc.storageBytes(), 32u * 1024u * 42u / 8u);
}

TEST(SignatureCacheDeathTest, BadGeometry)
{
    EXPECT_DEATH(SignatureCache(10, 3), "multiple of assoc");
}

//
// SequenceStorage
//

LtcordsConfig
tinyStorageConfig()
{
    LtcordsConfig c;
    c.numFrames = 16;
    c.fragmentSignatures = 8;
    c.headLookahead = 4;
    return c;
}

TEST(SequenceStorageTest, RecordFillsFragments)
{
    SequenceStorage st(tinyStorageConfig());
    for (std::uint64_t i = 0; i < 20; i++)
        st.record(1000 + i, i * 64, i * 64 + 4096);
    EXPECT_EQ(st.recordedTotal(), 20u);
    EXPECT_GE(st.framesInUse(), 2u); // 20 sigs / 8 per fragment
    EXPECT_EQ(st.residentSignatures(), 20u);
}

TEST(SequenceStorageTest, SignaturesReadableThroughPointer)
{
    SequenceStorage st(tinyStorageConfig());
    st.record(42, 0xAAA0, 0xBBB0);
    // Find it by scanning frames.
    const StoredSignature *found = nullptr;
    for (std::uint32_t f = 0; f < 16; f++) {
        if (st.frameValid(f) && st.frameFill(f) > 0)
            found = st.at(f, 0);
    }
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->key, 42u);
    EXPECT_EQ(found->replacement, 0xAAA0u);
    EXPECT_EQ(found->victim, 0xBBB0u);
    EXPECT_EQ(found->confidence, 2u); // initialised to 2 (Section 4.4)
}

TEST(SequenceStorageTest, HeadLookaheadSelectsEarlierKey)
{
    SequenceStorage st(tinyStorageConfig());
    // Fill the first fragment (8 sigs); fragment 2 begins at sig 8,
    // whose head is the key recorded 4 positions earlier (sig 4).
    for (std::uint64_t i = 0; i < 9; i++)
        st.record(100 + i, i, i);
    auto frame = st.frameForHead(104); // key of sig index 4
    EXPECT_TRUE(frame.has_value());
}

TEST(SequenceStorageTest, FrameConflictInvokesCallback)
{
    LtcordsConfig c = tinyStorageConfig();
    c.numFrames = 1; // every fragment maps to frame 0
    SequenceStorage st(c);
    std::uint32_t reallocated = 999;
    st.setReallocCallback([&](std::uint32_t f) { reallocated = f; });
    for (std::uint64_t i = 0; i < 20; i++)
        st.record(i, i, i);
    EXPECT_EQ(reallocated, 0u);
    EXPECT_GT(st.frameConflicts(), 0u);
}

TEST(SequenceStorageTest, ConfidenceUpdateThroughPointer)
{
    SequenceStorage st(tinyStorageConfig());
    st.record(1, 0x100, 0x200);
    std::uint32_t frame = 0;
    for (std::uint32_t f = 0; f < 16; f++)
        if (st.frameValid(f))
            frame = f;
    st.updateConfidence(frame, 0, 0);
    EXPECT_EQ(st.at(frame, 0)->confidence, 0u);
    // Stale pointer (past fill) is ignored, not fatal.
    st.updateConfidence(frame, 7, 3);
}

TEST(SequenceStorageTest, TrafficAccounting)
{
    SequenceStorage st(tinyStorageConfig());
    for (int i = 0; i < 10; i++)
        st.record(static_cast<std::uint64_t>(i), 0, 0);
    EXPECT_EQ(st.drainWriteBytes(), 10u * 5u); // 5B per signature
    EXPECT_EQ(st.drainWriteBytes(), 0u);       // drained
    st.noteStreamRead(4);
    EXPECT_EQ(st.drainReadBytes(), 20u);
}

TEST(SequenceStorageTest, HeadRingWrapsWithoutSkew)
{
    // Regression for the head-history ring: with a non-power-of-two
    // lookahead the ring cursor must wrap explicitly (indexing a
    // monotonic counter with `% size` skews slot selection once the
    // counter wraps). Pin the fixed semantics directly: across many
    // fragments, every new fragment's head is exactly the key
    // recorded `headLookahead` positions before the fragment start.
    LtcordsConfig c;
    c.numFrames = 4096;
    c.fragmentSignatures = 5;
    c.headLookahead = 3; // non-power-of-two
    SequenceStorage st(c);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 2000; i++) {
        // Distinct keys spread over the frame index space.
        const std::uint64_t key = i * 2654435761u + 17;
        if (!keys.empty() && keys.size() % c.fragmentSignatures == 0 &&
            keys.size() >= c.headLookahead) {
            // This record starts a fragment whose head must be the
            // key recorded `headLookahead` positions earlier.
            const std::uint64_t head =
                keys[keys.size() - c.headLookahead];
            st.record(key, 0, 0);
            auto frame = st.frameForHead(head);
            ASSERT_TRUE(frame.has_value())
                << "fragment at record " << keys.size()
                << " not linked to its head";
            ASSERT_NE(st.at(*frame, 0), nullptr);
            EXPECT_EQ(st.at(*frame, 0)->key, key);
        } else {
            st.record(key, 0, 0);
        }
        keys.push_back(key);
    }
    st.auditInvariants();
}

TEST(SequenceStorageTest, AdversarialStreamsKeepInvariants)
{
    // Property test: colliding frames (tiny frame count), fragment
    // overflow mid-stream (tiny fragments), and a realloc callback
    // that re-enters the storage's query interface — the invariant
    // audit must stay green throughout.
    LtcordsConfig c;
    c.numFrames = 2; // nearly every fragment collides
    c.fragmentSignatures = 3;
    c.headLookahead = 5; // longer than a fragment
    SequenceStorage st(c);
    std::uint64_t reallocs = 0;
    st.setReallocCallback([&](std::uint32_t frame) {
        reallocs++;
        // Reentrancy: the owner invalidating on-chip copies may query
        // the storage (and push a stale confidence) mid-realloc.
        EXPECT_LT(frame, 2u);
        st.frameFill(frame);
        st.frameValid(frame);
        st.updateConfidence(frame, 99, 1); // stale: must be ignored
        st.frameForHead(0xdead);
    });
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 5000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        st.record(x, x & ~std::uint64_t{63}, (x >> 8) & ~std::uint64_t{63});
        if (i % 257 == 0)
            st.auditInvariants();
    }
    st.auditInvariants();
    EXPECT_GT(reallocs, 0u);
    EXPECT_EQ(st.recordedTotal(), 5000u);
    // Collisions bound residency: at most numFrames full fragments.
    EXPECT_LE(st.residentSignatures(),
              static_cast<std::uint64_t>(c.numFrames) *
                  c.fragmentSignatures);
}

TEST(SequenceStorageTest, CapacityMatchesPaper)
{
    LtcordsConfig paper = LtcordsConfig::paper();
    EXPECT_EQ(paper.offChipSignatures(), 4096ull * 8192ull); // 32M
    EXPECT_EQ(paper.offChipBytes(), 4096ull * 8192ull * 5ull);
    EXPECT_NEAR(static_cast<double>(paper.offChipBytes()) /
                    (1024.0 * 1024.0),
                160.0, 1.0); // 160MB (Section 5.6)
}

//
// LtCords predictor end to end
//

CoverageStats
runLtcScan(const LtcordsConfig &cfg, std::uint64_t blocks,
           std::uint64_t refs)
{
    LtCords ltc(cfg);
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = blocks;
    a.accessesPerBlock = 2;
    StridedScanSource src({a}, 1);
    return runWithOpportunity(HierarchyConfig{}, &ltc, src, refs);
}

LtcordsConfig
testLtcConfig()
{
    LtcordsConfig c;
    c.l1Sets = 512;
    c.lineBytes = 64;
    return c;
}

TEST(LtCordsTest, CoversRepetitiveScan)
{
    auto stats = runLtcScan(testLtcConfig(), 4096, 10 * 8192);
    EXPECT_GT(stats.coverage(), 0.6);
    EXPECT_LT(static_cast<double>(stats.uselessPrefetches),
              0.05 * static_cast<double>(stats.opportunity));
}

TEST(LtCordsTest, NoCoverageWithoutRecurrence)
{
    // A single sweep never recurs: everything is training.
    auto stats = runLtcScan(testLtcConfig(), 8192, 16384);
    EXPECT_EQ(stats.correct, 0u);
}

TEST(LtCordsTest, SmallSignatureCacheStillWorks)
{
    // The stream is followed through sliding windows, so a signature
    // cache far smaller than the footprint retains most coverage
    // (Fig. 9's plateau).
    LtcordsConfig small = testLtcConfig();
    small.sigCacheEntries = 4096;
    small.sigCacheAssoc = 8;
    auto stats = runLtcScan(small, 8192, 10 * 16384);
    EXPECT_GT(stats.coverage(), 0.5);
}

TEST(LtCordsTest, StatsExported)
{
    LtCords ltc(testLtcConfig());
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = 2048;
    a.accessesPerBlock = 2;
    StridedScanSource src({a}, 1);
    runWithOpportunity(HierarchyConfig{}, &ltc, src, 5 * 4096);
    StatSet s("ltc");
    ltc.exportStats(s);
    EXPECT_GT(s.get("signatures_recorded"), 0.0);
    EXPECT_GT(s.get("signatures_streamed"), 0.0);
    EXPECT_GT(s.get("head_activations"), 0.0);
    EXPECT_GT(s.get("predictions"), 0.0);
}

TEST(LtCordsTest, MetaTrafficReported)
{
    LtCords ltc(testLtcConfig());
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = 2048;
    a.accessesPerBlock = 2;
    StridedScanSource src({a}, 1);
    TraceEngine engine(HierarchyConfig{}, &ltc);
    engine.run(src, 5 * 4096);
    const auto &traffic = engine.stats().traffic;
    EXPECT_GT(traffic.bytes(Traffic::SequenceCreate), 0u);
    EXPECT_GT(traffic.bytes(Traffic::SequenceFetch), 0u);
}

TEST(LtCordsTest, OnChipBudgetIsPractical)
{
    // Headline claim: ~214KB of on-chip storage (204KB signature
    // cache + 10KB sequence tag array).
    LtCords ltc(LtcordsConfig::paper());
    const double kb = static_cast<double>(ltc.onChipBytes()) / 1024.0;
    EXPECT_LT(kb, 230.0);
    EXPECT_GT(kb, 150.0);
}

TEST(LtCordsTest, StreamLatencyDefersInstallation)
{
    // The scan overflows the L1, so LT-cords records and streams it.
    // Without setNow() advancing past the stream latency, signatures
    // never arrive and coverage stays zero; with the latency off, the
    // same run covers the scan.
    LtcordsConfig cfg = testLtcConfig();
    cfg.modelStreamLatency = true;
    cfg.streamLatencyCycles = 1'000'000'000; // effectively never
    const CoverageStats deferred = runLtcScan(cfg, 4096, 10 * 8192);
    EXPECT_GT(deferred.opportunity, 0u);
    EXPECT_EQ(deferred.correct, 0u);

    cfg.modelStreamLatency = false;
    const CoverageStats control = runLtcScan(cfg, 4096, 10 * 8192);
    EXPECT_GT(control.coverage(), 0.6);
}

TEST(LtCordsTest, ConfidenceFeedbackReachesStorage)
{
    LtCords ltc(testLtcConfig());
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = 4096; // must exceed the L1 so evictions happen
    a.accessesPerBlock = 2;
    StridedScanSource src({a}, 1);
    runWithOpportunity(HierarchyConfig{}, &ltc, src, 8 * 8192);
    StatSet s("ltc");
    ltc.exportStats(s);
    // Correct predictions produce confidence increments.
    EXPECT_GT(s.get("confidence_ups"), 0.0);
}

/** Fragment-size sweep: coverage is insensitive above ~256 sigs. */
class FragmentSizeProperty
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(FragmentSizeProperty, ScanCoverageHolds)
{
    LtcordsConfig cfg = testLtcConfig();
    cfg.fragmentSignatures = GetParam();
    auto stats = runLtcScan(cfg, 4096, 10 * 8192);
    EXPECT_GT(stats.coverage(), 0.45)
        << "fragment=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Fragments, FragmentSizeProperty,
                         ::testing::Values(256, 512, 1024, 2048));

} // namespace
} // namespace ltc
