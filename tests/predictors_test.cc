/**
 * @file
 * Tests for the baseline predictors: history table, DBCP, GHB PC/DC
 * and the stride prefetcher.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "pred/dbcp.hh"
#include "pred/ghb.hh"
#include "pred/history_table.hh"
#include "pred/stride.hh"
#include "sim/trace_engine.hh"
#include "trace/primitives.hh"

namespace ltc
{
namespace
{

//
// HistoryTable
//

TEST(HistoryTableTest, KeyReproducible)
{
    HistoryTable h(16, 64);
    h.recordAccess(3, 0x100);
    h.recordAccess(3, 0x104);
    const std::uint64_t key = h.signatureKey(3);

    HistoryTable h2(16, 64);
    h2.recordAccess(3, 0x100);
    h2.recordAccess(3, 0x104);
    EXPECT_EQ(h2.signatureKey(3), key);
}

TEST(HistoryTableTest, KeyDependsOnSet)
{
    HistoryTable h(16, 64);
    h.recordAccess(3, 0x100);
    h.recordAccess(5, 0x100);
    EXPECT_NE(h.signatureKey(3), h.signatureKey(5));
}

TEST(HistoryTableTest, CloseWindowResetsTraceAndShiftsTags)
{
    HistoryTable h(16, 64);
    h.recordAccess(0, 0x100);
    const std::uint64_t before = h.signatureKey(0);
    h.closeWindow(0, 0xAB00);
    EXPECT_NE(h.signatureKey(0), before);

    // Same trace, same evicted history -> same key.
    HistoryTable h2(16, 64);
    h2.closeWindow(0, 0xAB00);
    h2.recordAccess(0, 0x200);
    h.recordAccess(0, 0x200);
    EXPECT_EQ(h.signatureKey(0), h2.signatureKey(0));
}

TEST(HistoryTableTest, EvictedTagHistoryDepthTwo)
{
    HistoryTable a(4, 64);
    HistoryTable b(4, 64);
    a.closeWindow(0, 0x1000);
    a.closeWindow(0, 0x2000);
    b.closeWindow(0, 0x9000); // older tag differs
    b.closeWindow(0, 0x2000);
    EXPECT_NE(a.signatureKey(0), b.signatureKey(0));
    // Third eviction pushes the differing tag out of the history.
    a.closeWindow(0, 0x3000);
    b.closeWindow(0, 0x3000);
    a.closeWindow(0, 0x4000);
    b.closeWindow(0, 0x4000);
    EXPECT_EQ(a.signatureKey(0), b.signatureKey(0));
}

//
// DBCP: drive through the trace engine on a tiny repetitive scan.
//

CoverageStats
runScan(Prefetcher *pred, std::uint64_t blocks, std::uint64_t refs,
        std::uint32_t apb = 2)
{
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = blocks;
    a.accessesPerBlock = apb;
    StridedScanSource src({a}, 1);
    return runWithOpportunity(HierarchyConfig{}, pred, src, refs);
}

TEST(DbcpTest, UnlimitedCoversRepetitiveScan)
{
    Dbcp dbcp(DbcpConfig{});
    // 4K blocks x 2 accesses = 8K refs per sweep; 10 sweeps.
    auto stats = runScan(&dbcp, 4096, 10 * 8192);
    EXPECT_GT(stats.coverage(), 0.5);
    EXPECT_LT(static_cast<double>(stats.uselessPrefetches),
              0.1 * static_cast<double>(stats.opportunity));
}

TEST(DbcpTest, RecordsSignatures)
{
    Dbcp dbcp(DbcpConfig{});
    runScan(&dbcp, 2048, 3 * 4096);
    EXPECT_GT(dbcp.storedSignatures(), 1000u);
    StatSet s("dbcp");
    dbcp.exportStats(s);
    EXPECT_GT(s.get("recorded"), 0.0);
    EXPECT_GT(s.get("predictions"), 0.0);
}

TEST(DbcpTest, FiniteTableThrashesOnLargeFootprint)
{
    DbcpConfig small;
    small.tableEntries = 1024; // tiny table
    Dbcp dbcp(small);
    // 16K blocks -> 16K signatures >> 1K entries.
    auto stats = runScan(&dbcp, 16384, 5 * 32768);
    EXPECT_LT(stats.coverage(), 0.15);
}

TEST(DbcpTest, FiniteVsUnlimitedOrdering)
{
    DbcpConfig small;
    small.tableEntries = 1024;
    Dbcp finite(small);
    Dbcp unlimited(DbcpConfig{});
    auto fs = runScan(&finite, 8192, 5 * 16384);
    auto us = runScan(&unlimited, 8192, 5 * 16384);
    EXPECT_GT(us.coverage(), fs.coverage());
}

TEST(DbcpTest, NoCoverageOnFirstSweep)
{
    Dbcp dbcp(DbcpConfig{});
    auto stats = runScan(&dbcp, 4096, 8192); // exactly one sweep
    EXPECT_EQ(stats.correct, 0u);
}

TEST(DbcpTest, Name)
{
    EXPECT_EQ(Dbcp(DbcpConfig{}).name(), "dbcp-unlimited");
    DbcpConfig c;
    c.tableEntries = DbcpConfig::entriesForBytes(2 * 1024 * 1024);
    EXPECT_EQ(Dbcp(c).name(), "dbcp-2048KB");
}

TEST(DbcpTest, EntriesForBytes)
{
    EXPECT_EQ(DbcpConfig::entriesForBytes(2 * 1024 * 1024), 256u * 1024u);
}

//
// GHB PC/DC
//

/** Feed the GHB a synthetic miss stream directly. */
std::vector<PrefetchRequest>
feedMisses(Ghb &ghb, const std::vector<Addr> &addrs, Addr pc)
{
    std::vector<PrefetchRequest> all;
    std::vector<PrefetchRequest> drained;
    for (Addr a : addrs) {
        MemRef ref;
        ref.pc = pc;
        ref.addr = a;
        HierOutcome out;
        out.level = HitLevel::Memory; // miss
        ghb.observe(ref, out);
        ghb.drainRequestsInto(drained);
        all.insert(all.end(), drained.begin(), drained.end());
    }
    return all;
}

TEST(GhbTest, ConstantStrideDetected)
{
    Ghb ghb(GhbConfig{});
    std::vector<Addr> misses;
    for (int i = 0; i < 10; i++)
        misses.push_back(0x100000 + static_cast<Addr>(i) * 64);
    auto reqs = feedMisses(ghb, misses, 0x400);
    ASSERT_FALSE(reqs.empty());
    // Prefetches must continue the +64 stride past the last miss.
    EXPECT_EQ(reqs.back().target & ~63ull,
              (misses.back() & ~63ull) + 64 * GhbConfig{}.depth);
    EXPECT_FALSE(reqs.back().intoL1);
}

TEST(GhbTest, RepeatingDeltaPatternDetected)
{
    Ghb ghb(GhbConfig{});
    // Pattern of deltas +64, +192 repeating.
    std::vector<Addr> misses;
    Addr a = 0x200000;
    for (int i = 0; i < 12; i++) {
        misses.push_back(a);
        a += (i % 2 == 0) ? 64 : 192;
    }
    auto reqs = feedMisses(ghb, misses, 0x400);
    EXPECT_FALSE(reqs.empty());
}

TEST(GhbTest, RandomMissesYieldFewPrefetches)
{
    Ghb ghb(GhbConfig{});
    Rng rng(5);
    std::vector<Addr> misses;
    for (int i = 0; i < 200; i++)
        misses.push_back(0x100000 + rng.below(1 << 20) * 64);
    auto reqs = feedMisses(ghb, misses, 0x400);
    EXPECT_LT(reqs.size(), 20u);
}

TEST(GhbTest, SeparatePcsSeparateChains)
{
    Ghb ghb(GhbConfig{});
    // Interleave two strided streams by different PCs; both must be
    // detected despite interleaving.
    std::vector<PrefetchRequest> reqs;
    std::vector<PrefetchRequest> drained;
    for (int i = 0; i < 10; i++) {
        for (Addr pc : {0x400ull, 0x500ull}) {
            MemRef ref;
            ref.pc = pc;
            ref.addr = (pc == 0x400 ? 0x100000 : 0x900000) +
                static_cast<Addr>(i) * 64;
            HierOutcome out;
            out.level = HitLevel::Memory;
            ghb.observe(ref, out);
            ghb.drainRequestsInto(drained);
            reqs.insert(reqs.end(), drained.begin(), drained.end());
        }
    }
    bool low = false;
    bool high = false;
    for (auto &r : reqs) {
        low |= r.target < 0x900000;
        high |= r.target >= 0x900000;
    }
    EXPECT_TRUE(low);
    EXPECT_TRUE(high);
}

TEST(GhbTest, HitsAreIgnored)
{
    Ghb ghb(GhbConfig{});
    MemRef ref;
    ref.pc = 0x400;
    ref.addr = 0x1000;
    HierOutcome out;
    out.level = HitLevel::L1;
    for (int i = 0; i < 100; i++)
        ghb.observe(ref, out);
    EXPECT_FALSE(ghb.hasRequests());
}

TEST(GhbTest, StatsExported)
{
    Ghb ghb(GhbConfig{});
    std::vector<Addr> misses;
    for (int i = 0; i < 10; i++)
        misses.push_back(0x100000 + static_cast<Addr>(i) * 64);
    feedMisses(ghb, misses, 0x400);
    StatSet s("ghb");
    ghb.exportStats(s);
    EXPECT_GT(s.get("misses_observed"), 0.0);
    EXPECT_GT(s.get("prefetches_issued"), 0.0);
}

TEST(GhbDeathTest, RingSizeMustBePowerOfTwo)
{
    // The ring is indexed by serial & (ghbEntries - 1).
    GhbConfig c;
    c.ghbEntries = 96;
    EXPECT_DEATH(Ghb{c}, "power of two");
}

//
// Stride prefetcher
//

TEST(StrideTest, ArmsAfterTwoConfirmations)
{
    StridePrefetcher sp(StrideConfig{});
    MemRef ref;
    ref.pc = 0x400;
    HierOutcome out;
    out.level = HitLevel::Memory;
    int issued = 0;
    std::vector<PrefetchRequest> drained;
    for (int i = 0; i < 6; i++) {
        ref.addr = 0x100000 + static_cast<Addr>(i) * 128;
        sp.observe(ref, out);
        sp.drainRequestsInto(drained);
        issued += static_cast<int>(drained.size());
    }
    EXPECT_GT(issued, 0);
}

TEST(StrideTest, PrefetchesFollowStride)
{
    StrideConfig cfg;
    cfg.degree = 2;
    StridePrefetcher sp(cfg);
    MemRef ref;
    ref.pc = 0x400;
    HierOutcome out;
    out.level = HitLevel::Memory;
    std::vector<PrefetchRequest> reqs;
    std::vector<PrefetchRequest> drained;
    for (int i = 0; i < 8; i++) {
        ref.addr = 0x100000 + static_cast<Addr>(i) * 256;
        sp.observe(ref, out);
        sp.drainRequestsInto(drained);
        reqs.insert(reqs.end(), drained.begin(), drained.end());
    }
    ASSERT_FALSE(reqs.empty());
    EXPECT_EQ(reqs.back().target, ref.addr + 2 * 256);
    EXPECT_FALSE(reqs.back().intoL1);
}

TEST(StrideTest, IrregularStreamStaysQuiet)
{
    StridePrefetcher sp(StrideConfig{});
    Rng rng(9);
    MemRef ref;
    ref.pc = 0x400;
    HierOutcome out;
    out.level = HitLevel::Memory;
    int issued = 0;
    std::vector<PrefetchRequest> drained;
    for (int i = 0; i < 200; i++) {
        ref.addr = 0x100000 + rng.below(1 << 22);
        sp.observe(ref, out);
        sp.drainRequestsInto(drained);
        issued += static_cast<int>(drained.size());
    }
    EXPECT_LT(issued, 10);
}

} // namespace
} // namespace ltc
