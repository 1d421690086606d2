/**
 * @file
 * Invariant-audit death tests.
 *
 * Each hand-rolled hot-path structure exposes auditInvariants()
 * (util/check.hh); this suite proves the audits actually fire by
 * corrupting private state through the TestPeer friend hook and
 * expecting the audit to panic, and — just as important — that
 * legitimately exercised state passes every audit cleanly. The
 * corruption classes cover the silent-failure modes the packed
 * representations are exposed to: a clobbered tag word, an empty or
 * resident eviction-mark entry, a dropped MSHR presence bit, reversed
 * ring order, a rewound bus horizon and a broken sequence-storage
 * frame link.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "cache/cache.hh"
#include "cache/cache_config.hh"
#include "cache/mshr.hh"
#include "core/ltcords_config.hh"
#include "core/sequence_storage.hh"
#include "cpu/core_config.hh"
#include "cpu/ooo_core.hh"
#include "mem/bus.hh"
#include "sim/experiment.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"
#include "trace/primitives.hh"
#include "trace/workloads.hh"
#include "util/check.hh"

namespace ltc
{

/**
 * The corruption hook: every audited structure befriends TestPeer, so
 * the death tests below can reach into private state and break
 * exactly one representation invariant at a time. Each mutator
 * documents the invariant it violates.
 */
struct TestPeer
{
    // ----------------------------------------------------- Cache

    /** Set a foreign-policy tag-word bit on the first valid line. */
    static void
    clobberTagWord(Cache &c)
    {
        for (std::uint64_t &tf : c.tagFlags_) {
            if (tf & lineValid) {
                // Bit 5 is the bottom of the policy field — an RRPV
                // bit, forbidden under the LRU default.
                tf |= std::uint64_t{1} << 5;
                return;
            }
        }
        FAIL() << "no valid line to clobber";
    }

    /** Flip the low tag bit so the line maps to a foreign set. */
    static void
    migrateLineToForeignSet(Cache &c)
    {
        for (std::uint64_t &tf : c.tagFlags_) {
            if (tf & lineValid) {
                tf ^= std::uint64_t{1} << tagShift;
                return;
            }
        }
        FAIL() << "no valid line to migrate";
    }

    /** Run a line's replacement stamp ahead of the global counter. */
    static void
    runawayStamp(Cache &c)
    {
        for (std::size_t i = 0; i < c.tagFlags_.size(); i++) {
            if (c.tagFlags_[i] & lineValid) {
                c.stamps_[i] = c.stamp_ + 1;
                return;
            }
        }
        FAIL() << "no valid line to stamp";
    }

    /** Leave an eviction-mark region in the map with no marks. */
    static void
    zeroMarkWord(Cache &c)
    {
        c.evictMarks_.insert(0x7777, 0);
    }

    /** Make a marked block resident without clearing its mark. */
    static void
    residentMarkedBlock(Cache &c)
    {
        const Addr block = 0x40000;
        ASSERT_FALSE(c.probe(block));
        c.markEvicted(block);
        c.fill(block, invalidAddr, LineMetaFetched);
    }

    /** Regions the eviction-mark map holds. */
    static std::size_t
    markRegions(const Cache &c)
    {
        return c.evictMarks_.size();
    }

    // -------------------------------------------------- MshrFile

    /** Zero the presence filter under live entries (false negative). */
    static void
    dropPresenceBits(MshrFile &m)
    {
        ASSERT_FALSE(m.entries_.empty());
        m.present_.fill(0);
    }

    /** Desynchronise the cached earliest-completion time. */
    static void
    staleEarliest(MshrFile &m)
    {
        ASSERT_FALSE(m.entries_.empty());
        m.earliest_ += 1;
    }

    /** Duplicate an outstanding entry (a merge that allocated). */
    static void
    duplicateEntry(MshrFile &m)
    {
        ASSERT_FALSE(m.entries_.empty());
        m.entries_.push_back(m.entries_.front());
    }

    // --------------------------------------------------- OooCore

    /** Swap the oldest and newest ROB entries (reversed order). */
    static void
    reverseRobOrder(OooCore &c)
    {
        const std::size_t newest =
            (c.robHead_ + c.robRing_.size() - 1) % c.robRing_.size();
        ASSERT_NE(c.robRing_[c.robHead_], c.robRing_[newest])
            << "exercise the core until retire slots differ";
        std::swap(c.robRing_[c.robHead_], c.robRing_[newest]);
    }

    /** Push the ROB head index past the ring. */
    static void
    robHeadOutOfRange(OooCore &c)
    {
        c.robHead_ = c.robRing_.size();
    }

    // ------------------------------------------------------- Bus

    /** Rewind the busy horizon behind the accumulated occupancy. */
    static void
    rewindBusyHorizon(Bus &b)
    {
        ASSERT_GT(b.transfers_, 0u);
        b.busyUntil_ = 0;
    }

    /** Account moved bytes on a bus that never transferred. */
    static void
    phantomWork(Bus &b)
    {
        ASSERT_EQ(b.transfers_, 0u);
        b.bytesMoved_ = 64;
    }

    // --------------------------------------- SequenceStorage

    /** Break a valid frame's direct-mapped head-key link. */
    static void
    breakFrameLink(SequenceStorage &s)
    {
        for (auto &frame : s.frames_) {
            if (frame.valid) {
                frame.headKey ^= 1;
                return;
            }
        }
        FAIL() << "no valid frame to corrupt";
    }

    /** Overfill a fragment past the configured length. */
    static void
    overfillFragment(SequenceStorage &s)
    {
        for (auto &frame : s.frames_) {
            if (!frame.valid)
                continue;
            frame.sigs.resize(s.config_.fragmentSignatures + 1);
            return;
        }
        FAIL() << "no valid frame to overfill";
    }
};

namespace
{

// ------------------------------------------------- exercised state
//
// Each helper drives the structure through its normal API far enough
// that every audited invariant is load-bearing (valid lines, live
// MSHR entries, differing retire slots, accounted transfers, valid
// frames), then the positive tests check the audit passes and the
// death tests corrupt from there.

CacheConfig
tinyCacheConfig()
{
    CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = 8 * 64 * 2; // 8 sets, 2-way
    c.assoc = 2;
    c.lineBytes = 64;
    return c;
}

void
exerciseCache(Cache &c)
{
    // Touch more blocks than lines so hits, misses, evictions and
    // eviction marks all occur.
    for (Addr a = 0; a < 40 * 64; a += 64) {
        const CacheOutcome out =
            c.access(a, (a / 64) % 3 ? MemOp::Load : MemOp::Store);
        if (out.evicted)
            c.markEvicted(out.victimAddr);
    }
    c.fill(0x100000, invalidAddr, LineMetaFetched | LineMetaOffChip);
    c.fill(0x200000, 0x100000, LineMetaFetched);
}

MshrFile
exercisedMshrs()
{
    MshrFile m(8);
    m.allocate(0x1000, 0, 120);
    m.allocate(0x2000, 5, 90);
    m.allocate(0x3000, 10, 300);
    return m;
}

void
exerciseCore(OooCore &c)
{
    c.issueNonMem(50);
    for (int i = 0; i < 8; i++) {
        const Cycle issue = c.beginMem();
        c.completeMem(issue + 200); // long misses spread the slots
        c.issueNonMem(10);
    }
}

Bus
exercisedBus()
{
    Bus b(BusConfig::memory());
    b.transfer(0, 64);
    b.transfer(10, 8);
    b.transfer(5, 64); // queues behind the second transfer
    return b;
}

LtcordsConfig
tinyStorageConfig()
{
    LtcordsConfig cfg;
    cfg.numFrames = 8;
    cfg.fragmentSignatures = 4;
    return cfg;
}

void
exerciseStorage(SequenceStorage &s)
{
    // Spread keys across frames; enough records to fill several
    // fragments and force at least one frame conflict.
    for (std::uint64_t i = 0; i < 64; i++) {
        const std::uint64_t key = i * 0x9e3779b97f4a7c15ull;
        s.record(key, 0x1000 + i * 64, 0x8000 + i * 64);
    }
}

// ------------------------------------------------- positive audits

TEST(InvariantAudit, ExercisedCachePasses)
{
    Cache c(tinyCacheConfig());
    c.auditInvariants(); // fresh
    exerciseCache(c);
    c.auditInvariants(); // exercised
}

TEST(InvariantAudit, ExercisedMshrFilePasses)
{
    MshrFile m = exercisedMshrs();
    m.auditInvariants();
    m.retire(150); // partial drain recomputes earliest_
    m.auditInvariants();
    m.retire(300); // full drain empties the presence filter
    m.auditInvariants();
}

TEST(InvariantAudit, ExercisedCorePasses)
{
    OooCore c(CoreConfig{});
    c.auditInvariants();
    exerciseCore(c);
    c.auditInvariants();
}

TEST(InvariantAudit, ExercisedBusPasses)
{
    Bus b(BusConfig::l1l2());
    b.auditInvariants();
    b.transfer(0, 64);
    b.auditInvariants();
}

TEST(InvariantAudit, ExercisedStoragePasses)
{
    SequenceStorage s(tinyStorageConfig());
    s.auditInvariants();
    exerciseStorage(s);
    s.auditInvariants();
}

TEST(InvariantAudit, TraceEngineAuditPassesAfterRun)
{
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = 4096;
    StridedScanSource src({a}, 2);
    auto pred = makePredictor("lt-cords", paperHierarchy());
    TraceEngine engine(paperHierarchy(), pred.get());
    engine.run(src, 50'000);
    engine.auditInvariants();
}

TEST(InvariantAudit, TimingEngineAuditPassesAfterRun)
{
    ScanArray a;
    a.base = 0x10000000;
    a.blocks = 4096;
    StridedScanSource src({a}, 2);
    TimingConfig cfg;
    auto pred = makePredictor("lt-cords", cfg.hier, true);
    TimingSim sim(cfg, pred.get());
    sim.run(src, 50'000);
    sim.auditInvariants();
}

TEST(InvariantAudit, EvictionMarkRegionsStayBounded)
{
    // The mark store holds one word per 4 KiB region with a live mark,
    // so it can never outgrow the regions the stream touched. On swim
    // LT-cords spreads marks over the whole footprint by ~1.5M
    // references; from then on the region count must stay flat, not
    // creep with run length.
    auto src = makeWorkload("swim");
    auto footprint = makeWorkload("swim"); // the identical stream
    auto pred = makePredictor("lt-cords", paperHierarchy());
    TraceEngine engine(paperHierarchy(), pred.get());
    const Cache &l1 = engine.hierarchy().l1d();

    std::unordered_set<Addr> touched;
    std::vector<MemRef> batch(500'000);
    std::vector<std::size_t> regions; // after each 0.5M references
    for (int step = 1; step <= 6; step++) {
        engine.run(*src, batch.size());
        ASSERT_EQ(footprint->fill(batch), batch.size());
        for (const MemRef &ref : batch)
            touched.insert(ref.addr >> 12);
        regions.push_back(TestPeer::markRegions(l1));
        EXPECT_LE(regions.back(), touched.size()) << "step " << step;
    }
    // Flat over 2M-3M references: within 1% of each other.
    const auto [lo, hi] =
        std::minmax_element(regions.begin() + 3, regions.end());
    EXPECT_GT(*lo, 0u);
    EXPECT_LE(*hi - *lo, *hi / 100)
        << "mark regions grew from " << *lo << " to " << *hi;
    l1.auditInvariants();
}

TEST(InvariantAudit, CheckMacroPassesOnTrueCondition)
{
    LTC_CHECK(1 + 1 == 2, "arithmetic holds");
    LTC_DCHECK(1 + 1 == 2, "arithmetic holds");
    SUCCEED();
}

// --------------------------------------------------- death tests
//
// Every EXPECT_DEATH matches "invariant": LTC_CHECK failures panic
// with "invariant '<cond>' violated: <context>", distinct from
// ltc_assert precondition failures.

class CacheAuditDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }
};

TEST_F(CacheAuditDeathTest, ClobberedTagWordIsCaught)
{
    Cache c(tinyCacheConfig());
    exerciseCache(c);
    TestPeer::clobberTagWord(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

TEST_F(CacheAuditDeathTest, LineMappedToForeignSetIsCaught)
{
    Cache c(tinyCacheConfig());
    exerciseCache(c);
    TestPeer::migrateLineToForeignSet(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

TEST_F(CacheAuditDeathTest, RunawayStampIsCaught)
{
    Cache c(tinyCacheConfig());
    exerciseCache(c);
    TestPeer::runawayStamp(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

TEST_F(CacheAuditDeathTest, EmptyMarkRegionIsCaught)
{
    Cache c(tinyCacheConfig());
    exerciseCache(c);
    TestPeer::zeroMarkWord(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

TEST_F(CacheAuditDeathTest, ResidentMarkedBlockIsCaught)
{
    Cache c(tinyCacheConfig());
    exerciseCache(c);
    TestPeer::residentMarkedBlock(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

class MshrAuditDeathTest : public CacheAuditDeathTest
{
};

TEST_F(MshrAuditDeathTest, DroppedPresenceBitIsCaught)
{
    MshrFile m = exercisedMshrs();
    TestPeer::dropPresenceBits(m);
    EXPECT_DEATH(m.auditInvariants(), "invariant");
}

TEST_F(MshrAuditDeathTest, StaleEarliestCompletionIsCaught)
{
    MshrFile m = exercisedMshrs();
    TestPeer::staleEarliest(m);
    EXPECT_DEATH(m.auditInvariants(), "invariant");
}

TEST_F(MshrAuditDeathTest, DuplicateEntryIsCaught)
{
    MshrFile m = exercisedMshrs();
    TestPeer::duplicateEntry(m);
    EXPECT_DEATH(m.auditInvariants(), "invariant");
}

class CoreAuditDeathTest : public CacheAuditDeathTest
{
};

TEST_F(CoreAuditDeathTest, ReversedRingOrderIsCaught)
{
    OooCore c(CoreConfig{});
    exerciseCore(c);
    TestPeer::reverseRobOrder(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

TEST_F(CoreAuditDeathTest, RingHeadOutOfRangeIsCaught)
{
    OooCore c(CoreConfig{});
    exerciseCore(c);
    TestPeer::robHeadOutOfRange(c);
    EXPECT_DEATH(c.auditInvariants(), "invariant");
}

class BusAuditDeathTest : public CacheAuditDeathTest
{
};

TEST_F(BusAuditDeathTest, RewoundBusyHorizonIsCaught)
{
    Bus b = exercisedBus();
    TestPeer::rewindBusyHorizon(b);
    EXPECT_DEATH(b.auditInvariants(), "invariant");
}

TEST_F(BusAuditDeathTest, PhantomWorkOnIdleBusIsCaught)
{
    Bus b(BusConfig::l1l2());
    TestPeer::phantomWork(b);
    EXPECT_DEATH(b.auditInvariants(), "invariant");
}

class StorageAuditDeathTest : public CacheAuditDeathTest
{
};

TEST_F(StorageAuditDeathTest, BrokenFrameLinkIsCaught)
{
    SequenceStorage s(tinyStorageConfig());
    exerciseStorage(s);
    TestPeer::breakFrameLink(s);
    EXPECT_DEATH(s.auditInvariants(), "invariant");
}

TEST_F(StorageAuditDeathTest, OverfilledFragmentIsCaught)
{
    SequenceStorage s(tinyStorageConfig());
    exerciseStorage(s);
    TestPeer::overfillFragment(s);
    EXPECT_DEATH(s.auditInvariants(), "invariant");
}

} // namespace
} // namespace ltc
