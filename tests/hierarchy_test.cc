/**
 * @file
 * Tests for the two-level cache hierarchy.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"

namespace ltc
{
namespace
{

HierarchyConfig
smallHier()
{
    HierarchyConfig h;
    h.l1d.sizeBytes = 4 * 2 * 64; // 4 sets x 2 ways
    h.l1d.assoc = 2;
    h.l2.sizeBytes = 16 * 4 * 64; // 16 sets x 4 ways
    h.l2.assoc = 4;
    return h;
}

TEST(HierarchyTest, MissGoesToMemoryThenHits)
{
    CacheHierarchy hier(smallHier());
    auto out = hier.access(0x1000, MemOp::Load);
    EXPECT_EQ(out.level, HitLevel::Memory);
    out = hier.access(0x1000, MemOp::Load);
    EXPECT_EQ(out.level, HitLevel::L1);
    EXPECT_EQ(hier.l1d().accesses(), 2u);
    EXPECT_EQ(hier.l1d().misses(), 1u);
    EXPECT_EQ(hier.l2().misses(), 1u);
}

TEST(HierarchyTest, L2HitAfterL1Eviction)
{
    CacheHierarchy hier(smallHier());
    // Fill L1 set 0 (blocks aliasing with 4-set L1 but distinct in
    // 16-set L2).
    hier.access(0x0000, MemOp::Load);
    hier.access(0x0400, MemOp::Load);
    hier.access(0x0800, MemOp::Load); // evicts 0x0000 from L1
    auto out = hier.access(0x0000, MemOp::Load);
    EXPECT_EQ(out.level, HitLevel::L2);
}

TEST(HierarchyTest, VictimReported)
{
    CacheHierarchy hier(smallHier());
    hier.access(0x0000, MemOp::Load);
    hier.access(0x0400, MemOp::Load);
    auto out = hier.access(0x0800, MemOp::Load);
    EXPECT_TRUE(out.l1Victim.evicted);
    EXPECT_EQ(out.l1Victim.addr, 0x0000u);
    EXPECT_EQ(out.l1Set, 0u);
    EXPECT_FALSE(out.l2Victim.evicted);
}

TEST(HierarchyTest, PerfectL1AlwaysHits)
{
    HierarchyConfig cfg = smallHier();
    cfg.perfectL1 = true;
    CacheHierarchy hier(cfg);
    for (Addr a = 0; a < 100; a++) {
        auto out = hier.access(a * 64, MemOp::Load);
        EXPECT_EQ(out.level, HitLevel::L1);
    }
    EXPECT_EQ(hier.l1d().misses(), 0u);
    // Every block is already in L1D, so a prefetch installs nothing.
    EXPECT_TRUE(hier.prefetch(0x10000, invalidAddr).alreadyInL1);
    EXPECT_EQ(hier.l1d().prefetchFills(), 0u);
    EXPECT_EQ(hier.l2().prefetchFills(), 0u);
}

TEST(HierarchyTest, PrefetchInstallsIntoBothLevels)
{
    CacheHierarchy hier(smallHier());
    auto pf = hier.prefetch(0x1000, invalidAddr);
    EXPECT_FALSE(pf.alreadyInL1);
    EXPECT_FALSE(pf.l2Hit);
    EXPECT_TRUE(hier.l1d().probe(0x1000));
    EXPECT_TRUE(hier.l2().probe(0x1000));
    // Demand access is an L1 hit on the prefetched block.
    auto out = hier.access(0x1000, MemOp::Load);
    EXPECT_EQ(out.level, HitLevel::L1);
    EXPECT_TRUE(out.l1HitOnPrefetch);
}

TEST(HierarchyTest, PrefetchL2CopyNotMarkedUntouched)
{
    // The L2 waypoint copy must not register as a useless prefetch
    // when it later dies in L2 (the L1 copy tracks usefulness).
    CacheHierarchy hier(smallHier());
    hier.prefetch(0x1000, invalidAddr);
    EXPECT_FALSE(hier.l2().isUntouchedPrefetch(0x1000));
    EXPECT_TRUE(hier.l1d().isUntouchedPrefetch(0x1000));
}

TEST(HierarchyTest, PrefetchReplacesPredictedVictim)
{
    CacheHierarchy hier(smallHier());
    hier.access(0x0000, MemOp::Load);
    hier.access(0x0400, MemOp::Load); // 0x0000 is LRU
    auto pf = hier.prefetch(0x0800, 0x0400);
    EXPECT_TRUE(pf.l1Victim.evicted);
    EXPECT_EQ(pf.l1Victim.addr, 0x0400u);
    EXPECT_TRUE(hier.l1d().probe(0x0000)); // LRU survived
}

TEST(HierarchyTest, PrefetchAlreadyResident)
{
    CacheHierarchy hier(smallHier());
    hier.access(0x1000, MemOp::Load);
    auto pf = hier.prefetch(0x1000, invalidAddr);
    EXPECT_TRUE(pf.alreadyInL1);
}

TEST(HierarchyTest, PrefetchSeesL2Hit)
{
    CacheHierarchy hier(smallHier());
    hier.access(0x0000, MemOp::Load);
    hier.access(0x0400, MemOp::Load);
    hier.access(0x0800, MemOp::Load); // 0x0000 now only in L2
    auto pf = hier.prefetch(0x0000, invalidAddr);
    EXPECT_FALSE(pf.alreadyInL1);
    EXPECT_TRUE(pf.l2Hit);
}

// ------------------------------------- cross-level victim rules
//
// smallHier() geometry: blocks 0, 4 and 8 share L1 set 0 but sit in
// L2 sets 0, 4 and 8; blocks 0, 16, 32, ... share set 0 of both.

constexpr Addr kA = 0x0000;  // block 0: L1 set 0, L2 set 0
constexpr Addr kB = 0x0100;  // block 4: L1 set 0, L2 set 4
constexpr Addr kC = 0x0200;  // block 8: L1 set 0, L2 set 8
constexpr std::uint8_t kOffChipEntry = LineMetaFetched | LineMetaOffChip;

/**
 * Push @p block out of L2 with direct L2 accesses to its set (L1 is
 * left alone); returns the outcome of the access that evicted it.
 */
CacheOutcome
evictFromL2(CacheHierarchy &hier, Addr block)
{
    const Cache &l2 = hier.l2();
    const Addr stride =
        static_cast<Addr>(l2.config().numSets()) * l2.config().lineBytes;
    for (std::uint32_t i = 1; i <= l2.config().assoc; i++) {
        const CacheOutcome out =
            hier.l2().access(block + i * stride, MemOp::Load);
        if (out.evicted && out.victimAddr == block)
            return out;
    }
    ADD_FAILURE() << "block " << block << " was not evicted from L2";
    return {};
}

/** A stored-to block whose L2 copy is clean: load, then store. */
void
dirtyInL1Only(CacheHierarchy &hier, Addr block)
{
    hier.access(block, MemOp::Load);
    EXPECT_TRUE(hier.access(block, MemOp::Store).l1Hit());
}

TEST(HierarchyTest, DirtyL1VictimWritesBackIntoL2Copy)
{
    HierarchyConfig cfg = smallHier();
    cfg.modelWritebacks = true;
    CacheHierarchy hier(cfg);
    dirtyInL1Only(hier, kA);
    hier.access(kB, MemOp::Load);
    const HierOutcome out = hier.access(kC, MemOp::Load);
    EXPECT_TRUE(out.l1Victim.evicted);
    EXPECT_EQ(out.l1Victim.addr, kA);
    EXPECT_TRUE(out.l1Victim.writeback);
    EXPECT_TRUE(out.l1Victim.absorbed);
    EXPECT_FALSE(out.l2Victim.evicted);
    // The L2 copy took the writeback: it leaves dirty.
    EXPECT_TRUE(evictFromL2(hier, kA).victimDirty);
}

TEST(HierarchyTest, DirtyL1VictimWithoutL2CopyGoesOffChip)
{
    HierarchyConfig cfg = smallHier();
    cfg.modelWritebacks = true;
    CacheHierarchy hier(cfg);
    dirtyInL1Only(hier, kA);
    const CacheOutcome l2 = evictFromL2(hier, kA);
    EXPECT_FALSE(l2.victimDirty); // the L2 copy was clean
    EXPECT_TRUE(hier.l1d().probe(kA));
    hier.access(kB, MemOp::Load);
    const HierOutcome out = hier.access(kC, MemOp::Load);
    EXPECT_EQ(out.l1Victim.addr, kA);
    EXPECT_TRUE(out.l1Victim.writeback);
    EXPECT_FALSE(out.l1Victim.absorbed);
}

TEST(HierarchyTest, WritebacksOffLeaveL2CopyClean)
{
    CacheHierarchy hier(smallHier());
    dirtyInL1Only(hier, kA);
    hier.access(kB, MemOp::Load);
    const HierOutcome out = hier.access(kC, MemOp::Load);
    EXPECT_EQ(out.l1Victim.addr, kA);
    EXPECT_FALSE(out.l1Victim.writeback);
    EXPECT_FALSE(out.l1Victim.absorbed);
    EXPECT_FALSE(evictFromL2(hier, kA).victimDirty);
}

/**
 * An untouched L1 prefetch of @p block whose classification entry an
 * L2-only prefetch moved to the (re-installed) L2 copy.
 */
void
entryOnL2Copy(CacheHierarchy &hier, Addr block)
{
    EXPECT_FALSE(hier.prefetch(block, invalidAddr).alreadyInL1);
    evictFromL2(hier, block);
    const PrefetchOutcome pf = hier.prefetchL2(block);
    EXPECT_FALSE(pf.l2Hit);
    EXPECT_TRUE(hier.l1d().isUntouchedPrefetch(block));
    EXPECT_TRUE(hier.l2().isUntouchedPrefetch(block));
}

TEST(HierarchyTest, UntouchedL1VictimTakesL2CopysEntry)
{
    CacheHierarchy hier(smallHier());
    entryOnL2Copy(hier, kA);
    hier.access(kB, MemOp::Load);
    const HierOutcome out = hier.access(kC, MemOp::Load);
    EXPECT_EQ(out.l1Victim.addr, kA);
    EXPECT_TRUE(out.l1Victim.untouchedPrefetch);
    EXPECT_EQ(out.l1Victim.meta, kOffChipEntry);
    // Taken, not copied: at most one entry per block.
    EXPECT_TRUE(hier.l2().probe(kA));
    EXPECT_EQ(hier.l2().takeMeta(kA), 0u);
}

TEST(HierarchyTest, L1PrefetchHitTakesL2CopysEntry)
{
    CacheHierarchy hier(smallHier());
    entryOnL2Copy(hier, kA);
    const HierOutcome out = hier.access(kA, MemOp::Load);
    EXPECT_TRUE(out.l1Hit());
    EXPECT_TRUE(out.l1HitOnPrefetch);
    EXPECT_EQ(out.l1Meta, kOffChipEntry);
    EXPECT_EQ(hier.l2().takeMeta(kA), 0u);
}

/**
 * The L1-side rules run between the L1 and L2 steps: when one access
 * evicts a block from L1 and its L2 copy from L2, the L2 copy must
 * first absorb the L1 victim's writeback, which then leaves with it.
 */
TEST(HierarchyTest, DirtyL1VictimAbsorbedBeforeL2StepEvictsCopy)
{
    HierarchyConfig cfg = smallHier();
    cfg.modelWritebacks = true;
    CacheHierarchy hier(cfg);
    dirtyInL1Only(hier, kA);
    // Blocks 16, 32, 48 fill L2 set 0 behind A's copy; re-touching A
    // (an L1 hit, which L2 never sees) keeps it in L1 until the last.
    for (Addr a : {0x0400, 0x0800}) {
        hier.access(a, MemOp::Load);
        EXPECT_TRUE(hier.access(kA, MemOp::Load).l1Hit());
    }
    hier.access(0x0c00, MemOp::Load);
    // Block 64 evicts A from L1 and A's copy from L2.
    const HierOutcome out = hier.access(0x1000, MemOp::Load);
    EXPECT_EQ(out.l1Victim.addr, kA);
    EXPECT_TRUE(out.l1Victim.writeback);
    EXPECT_TRUE(out.l1Victim.absorbed);
    EXPECT_EQ(out.l2Victim.addr, kA);
    EXPECT_TRUE(out.l2Victim.writeback);
}

/**
 * Likewise for the entry fallback: the untouched L1 victim takes its
 * L2 copy's entry before the same access's L2 step evicts that copy.
 */
TEST(HierarchyTest, UntouchedL1VictimTakesEntryBeforeL2StepEvictsCopy)
{
    CacheHierarchy hier(smallHier());
    entryOnL2Copy(hier, kA);
    // Age A's L2 copy to least recent with direct L2 accesses to its
    // set, then give A an L1 set-mate so it is least recent there too.
    for (Addr a : {0x1400, 0x1800, 0x1c00})
        hier.l2().access(a, MemOp::Load);
    hier.access(kB, MemOp::Load);
    const HierOutcome out = hier.access(0x2000, MemOp::Load);
    EXPECT_EQ(out.l1Victim.addr, kA);
    EXPECT_TRUE(out.l1Victim.untouchedPrefetch);
    EXPECT_EQ(out.l1Victim.meta, kOffChipEntry);
    EXPECT_EQ(out.l2Victim.addr, kA);
    EXPECT_TRUE(out.l2Victim.untouchedPrefetch);
    EXPECT_EQ(out.l2Victim.meta, 0u);
}

TEST(HierarchyTest, PrefetchReportsBothVictims)
{
    CacheHierarchy hier(smallHier());
    // Blocks 0, 16, 32, 48 fill L2 set 0; L1 set 0 keeps the last two.
    for (Addr a : {0x0000, 0x0400, 0x0800, 0x0c00})
        hier.access(a, MemOp::Load);
    const PrefetchOutcome pf = hier.prefetch(0x1000, invalidAddr);
    EXPECT_FALSE(pf.alreadyInL1);
    EXPECT_FALSE(pf.l2Hit);
    EXPECT_TRUE(pf.l2Victim.evicted); // the waypoint install's victim
    EXPECT_EQ(pf.l2Victim.addr, 0x0000u);
    EXPECT_FALSE(pf.l2Victim.untouchedPrefetch);
    EXPECT_TRUE(pf.l1Victim.evicted);
    EXPECT_EQ(pf.l1Victim.addr, 0x0800u);
    // The block's entry sits on the L1 line: fetched off chip.
    EXPECT_EQ(hier.l1d().takeMeta(0x1000), kOffChipEntry);
    EXPECT_EQ(hier.l2().takeMeta(0x1000), 0u);
}

TEST(HierarchyTest, PrefetchL2InstallsOffChipEntryUnlessResident)
{
    CacheHierarchy hier(smallHier());
    hier.access(kA, MemOp::Load);
    PrefetchOutcome pf = hier.prefetchL2(kA);
    EXPECT_TRUE(pf.l2Hit);
    EXPECT_FALSE(pf.l2Victim.evicted);
    EXPECT_FALSE(hier.l2().isUntouchedPrefetch(kA));
    EXPECT_EQ(hier.l2().takeMeta(kA), 0u);

    pf = hier.prefetchL2(kB);
    EXPECT_FALSE(pf.alreadyInL1);
    EXPECT_FALSE(pf.l2Hit);
    EXPECT_FALSE(pf.l1Victim.evicted);
    EXPECT_FALSE(hier.l1d().probe(kB));
    EXPECT_TRUE(hier.l2().isUntouchedPrefetch(kB));
    EXPECT_EQ(hier.l2().takeMeta(kB), kOffChipEntry);
}

/**
 * An L1 prefetch of a block an L2-only prefetch left in L2: the one
 * L2 fill reports the copy as an L2 hit and leaves its line alone, the
 * L1 line takes an on-chip entry, and the copy's off-chip entry is
 * retired, so the block keeps exactly one.
 */
TEST(HierarchyTest, PrefetchOverL2OnlyPrefetchRetiresItsEntry)
{
    CacheHierarchy hier(smallHier());
    EXPECT_FALSE(hier.prefetchL2(kA).l2Hit);
    const PrefetchOutcome pf = hier.prefetch(kA, invalidAddr);
    EXPECT_FALSE(pf.alreadyInL1);
    EXPECT_TRUE(pf.l2Hit);
    EXPECT_FALSE(pf.l2Victim.evicted);
    EXPECT_TRUE(hier.l1d().isUntouchedPrefetch(kA));
    EXPECT_EQ(hier.l1d().takeMeta(kA), LineMetaFetched);
    EXPECT_TRUE(hier.l2().isUntouchedPrefetch(kA));
    EXPECT_EQ(hier.l2().takeMeta(kA), 0u);
}

TEST(HierarchyDeathTest, MismatchedLineSizesFatal)
{
    HierarchyConfig cfg = smallHier();
    cfg.l2.lineBytes = 128;
    cfg.l2.sizeBytes = 16 * 4 * 128;
    EXPECT_EXIT(CacheHierarchy{cfg}, ::testing::ExitedWithCode(1),
                "line sizes");
}

TEST(HierarchyTest, PaperConfigDefaults)
{
    HierarchyConfig cfg;
    EXPECT_EQ(cfg.l1d.sizeBytes, 64u * 1024u);
    EXPECT_EQ(cfg.l1d.assoc, 2u);
    EXPECT_EQ(cfg.l1d.latency, 2u);
    EXPECT_EQ(cfg.l2.sizeBytes, 1024u * 1024u);
    EXPECT_EQ(cfg.l2.assoc, 8u);
    EXPECT_EQ(cfg.l2.latency, 20u);
}

} // namespace
} // namespace ltc
