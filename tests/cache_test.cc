/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/cache_config.hh"
#include "cache/set_scan.hh"
#include "util/random.hh"

namespace ltc
{
namespace
{

CacheConfig
tinyConfig(std::uint32_t assoc = 2, ReplPolicy policy = ReplPolicy::LRU)
{
    CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = 4 * 64 * assoc; // 4 sets
    c.assoc = assoc;
    c.lineBytes = 64;
    c.policy = policy;
    return c;
}

TEST(CacheConfigTest, GeometryHelpers)
{
    auto c = CacheConfig::l1d();
    EXPECT_EQ(c.numLines(), 1024u);
    EXPECT_EQ(c.numSets(), 512u);
    c = CacheConfig::l2();
    EXPECT_EQ(c.numLines(), 16384u);
    EXPECT_EQ(c.numSets(), 2048u);
}

TEST(CacheConfigDeathTest, BadGeometryIsFatal)
{
    CacheConfig c;
    c.lineBytes = 48; // not a power of two
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "power of two");
    c = CacheConfig{};
    c.assoc = 3;
    c.sizeBytes = 64 * 64; // 64 lines, not divisible into 3-way sets
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "");
}

TEST(CacheConfigTest, PolicyNames)
{
    EXPECT_STREQ(replPolicyName(ReplPolicy::LRU), "LRU");
    EXPECT_STREQ(replPolicyName(ReplPolicy::FIFO), "FIFO");
    EXPECT_STREQ(replPolicyName(ReplPolicy::Random), "Random");
    EXPECT_STREQ(replPolicyName(ReplPolicy::RRIP), "RRIP");
    EXPECT_STREQ(replPolicyName(ReplPolicy::DRRIP), "DRRIP");
    EXPECT_STREQ(replPolicyName(ReplPolicy::SHiP), "SHiP");
    EXPECT_STREQ(replPolicyName(ReplPolicy::DeadBlock), "DeadBlock");
    // The canonical sweep order covers every policy exactly once.
    EXPECT_EQ(std::size(allReplPolicies), 7u);
}

TEST(CacheTest, MissThenHit)
{
    Cache c(tinyConfig());
    EXPECT_FALSE(c.access(0x1000, MemOp::Load).hit);
    EXPECT_TRUE(c.access(0x1000, MemOp::Load).hit);
    EXPECT_TRUE(c.access(0x1030, MemOp::Load).hit); // same block
    EXPECT_EQ(c.accesses(), 3u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheTest, BlockAlignAndSetIndex)
{
    Cache c(tinyConfig());
    EXPECT_EQ(c.blockAlign(0x1037), 0x1000u);
    // 4 sets: block address 0x1000>>6 = 0x40 -> set 0.
    EXPECT_EQ(c.setIndex(0x1000), 0u);
    EXPECT_EQ(c.setIndex(0x1040), 1u);
    EXPECT_EQ(c.setIndex(0x1100), 0u);
}

TEST(CacheTest, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyConfig(2, ReplPolicy::LRU));
    // Fill set 0 with A and B (4 sets, so stride 4*64=256 aliases).
    c.access(0x0000, MemOp::Load);  // A
    c.access(0x0100, MemOp::Load);  // B
    c.access(0x0000, MemOp::Load);  // touch A -> B is LRU
    auto out = c.access(0x0200, MemOp::Load); // C evicts B
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0100u);
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0100));
}

TEST(CacheTest, FifoEvictsOldestFill)
{
    Cache c(tinyConfig(2, ReplPolicy::FIFO));
    c.access(0x0000, MemOp::Load);  // A filled first
    c.access(0x0100, MemOp::Load);  // B
    c.access(0x0000, MemOp::Load);  // touching A must NOT save it
    auto out = c.access(0x0200, MemOp::Load);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0000u);
}

TEST(CacheTest, RandomPolicyEvictsValidWay)
{
    Cache c(tinyConfig(4, ReplPolicy::Random));
    for (Addr a = 0; a < 4; a++)
        c.access(a * 4 * 64 * 4, MemOp::Load); // fill set 0? keep easy
    // Just exercise: more fills than capacity never crash and keep
    // occupancy bounded.
    for (Addr a = 0; a < 100; a++)
        c.access(a * 1024, MemOp::Load);
    SUCCEED();
}

TEST(CacheTest, RripEvictsDistantBeforeRecent)
{
    Cache c(tinyConfig(2, ReplPolicy::RRIP));
    c.access(0x0000, MemOp::Load); // A: inserted long (RRPV 2)
    c.access(0x0100, MemOp::Load); // B: inserted long (RRPV 2)
    c.access(0x0000, MemOp::Load); // hit promotes A to RRPV 0
    // Conflict: no way is distant, so both age until B reaches 3.
    auto out = c.access(0x0200, MemOp::Load);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0100u);
    EXPECT_TRUE(c.probe(0x0000));
}

TEST(CacheTest, DeadBlockPrefersMarkedVictim)
{
    Cache c(tinyConfig(2, ReplPolicy::DeadBlock));
    c.access(0x0000, MemOp::Load); // A: the LRU way
    c.access(0x0100, MemOp::Load); // B: more recent
    EXPECT_TRUE(c.markDead(0x0100));
    auto out = c.access(0x0200, MemOp::Load);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0100u) << "dead mark must override LRU";
    // A re-touch clears the mark: back to plain LRU order.
    c.access(0x0000, MemOp::Load);
    EXPECT_TRUE(c.markDead(0x0000));
    c.access(0x0000, MemOp::Load); // touching the block revives it
    auto out2 = c.access(0x0300, MemOp::Load);
    EXPECT_TRUE(out2.evicted);
    EXPECT_EQ(out2.victimAddr, 0x0200u);
}

TEST(CacheTest, MarkDeadOnAbsentBlockIsFalse)
{
    Cache c(tinyConfig(2, ReplPolicy::DeadBlock));
    EXPECT_FALSE(c.markDead(0x0000));
    c.access(0x0000, MemOp::Load);
    EXPECT_TRUE(c.markDead(0x0000));
}

TEST(CacheTest, ShipAndDrripSweepNeverCorruptState)
{
    // Behavioural pin for the table-backed policies: full pressure
    // sweep with hits mixed in, then the invariant audit (which
    // checks SHCT bounds, PSEL bounds and per-policy forbidden bits)
    // must pass.
    for (const ReplPolicy p : {ReplPolicy::SHiP, ReplPolicy::DRRIP}) {
        Cache c(tinyConfig(4, p));
        for (Addr a = 0; a < 4000; a++)
            c.access((a % 97) * 64 * ((a & 1) + 1),
                     (a % 5) ? MemOp::Load : MemOp::Store);
        c.auditInvariants();
        EXPECT_EQ(c.accesses(), 4000u);
    }
}

TEST(CacheTest, VictimDirtySurfacedOnEviction)
{
    Cache c(tinyConfig());
    c.access(0x0000, MemOp::Store); // A, dirtied
    c.access(0x0100, MemOp::Load);  // B, clean
    auto out = c.access(0x0200, MemOp::Load); // evicts dirty A
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0000u);
    EXPECT_TRUE(out.victimDirty);
    auto out2 = c.access(0x0300, MemOp::Load); // evicts clean B
    EXPECT_TRUE(out2.evicted);
    EXPECT_EQ(out2.victimAddr, 0x0100u);
    EXPECT_FALSE(out2.victimDirty);
}

TEST(CacheTest, SetDirtyMarksResidentBlocksOnly)
{
    Cache c(tinyConfig());
    EXPECT_FALSE(c.setDirty(0x0000));
    c.access(0x0000, MemOp::Load);
    EXPECT_TRUE(c.setDirty(0x0000));
    // The externally-set dirty bit surfaces at eviction.
    c.access(0x0100, MemOp::Load);
    auto out = c.access(0x0200, MemOp::Load);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0000u);
    EXPECT_TRUE(out.victimDirty);
}

TEST(CacheTest, OutcomeReportsEvictions)
{
    Cache c(tinyConfig());
    EXPECT_FALSE(c.access(0x0000, MemOp::Load).evicted);
    EXPECT_FALSE(c.access(0x0100, MemOp::Load).evicted);
    auto out = c.access(0x0200, MemOp::Load); // evicts 0x0000 (LRU)
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0000u);
    EXPECT_EQ(out.set, 0u);
    EXPECT_FALSE(out.victimDirty);
    EXPECT_FALSE(out.victimUntouchedPrefetch);
    EXPECT_EQ(out.victimMeta, 0u);
    EXPECT_EQ(c.evictions(), 1u);
}

constexpr std::uint8_t kOffChipEntry = LineMetaFetched | LineMetaOffChip;

TEST(CacheTest, FillEvictsPredictedVictim)
{
    Cache c(tinyConfig(2));
    c.access(0x0000, MemOp::Load); // A
    c.access(0x0100, MemOp::Load); // B; A is LRU
    // Prefetch C replacing B (the MRU): must evict B, not LRU A.
    auto out = c.fill(0x0200, 0x0100, kOffChipEntry);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0100u);
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_TRUE(c.probe(0x0200));
}

TEST(CacheTest, FillFallsBackToPolicyVictim)
{
    Cache c(tinyConfig(2));
    c.access(0x0000, MemOp::Load); // A
    c.access(0x0100, MemOp::Load); // B
    // Predicted victim not resident: evict the LRU (A).
    auto out = c.fill(0x0200, 0x0300, kOffChipEntry);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0000u);
    // No prediction at all: the policy victim again (LRU B).
    out = c.fill(0x0400, invalidAddr, kOffChipEntry);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0100u);
}

/**
 * Filling a resident block changes neither its classification entry
 * nor its untouched-prefetch flag, whatever the fill carries.
 */
TEST(CacheTest, FillResidentIsNoop)
{
    Cache c(tinyConfig());
    c.access(0x0000, MemOp::Load);
    auto out = c.fill(0x0000, 0x0100, kOffChipEntry);
    EXPECT_TRUE(out.hit);
    EXPECT_FALSE(out.evicted);
    EXPECT_EQ(c.prefetchFills(), 0u);
    EXPECT_FALSE(c.isUntouchedPrefetch(0x0000));
    EXPECT_EQ(c.takeMeta(0x0000), 0u);

    c.fill(0x0100, invalidAddr, kOffChipEntry);
    EXPECT_TRUE(c.fill(0x0100, invalidAddr, 0).hit);
    EXPECT_EQ(c.prefetchFills(), 1u);
    EXPECT_TRUE(c.isUntouchedPrefetch(0x0100));
    EXPECT_EQ(c.takeMeta(0x0100), kOffChipEntry);
}

TEST(CacheTest, PrefetchedFlagLifecycle)
{
    Cache c(tinyConfig());
    c.fill(0x0000, invalidAddr, kOffChipEntry);
    EXPECT_TRUE(c.isUntouchedPrefetch(0x0000));
    auto out = c.access(0x0000, MemOp::Load);
    EXPECT_TRUE(out.hit);
    EXPECT_TRUE(out.hitUntouchedPrefetch);
    EXPECT_EQ(out.meta, kOffChipEntry);
    EXPECT_FALSE(c.isUntouchedPrefetch(0x0000));
    out = c.access(0x0000, MemOp::Load);
    EXPECT_FALSE(out.hitUntouchedPrefetch);
    EXPECT_EQ(out.meta, 0u);
}

TEST(CacheTest, UnmarkedFillIsNotUntouchedPrefetch)
{
    Cache c(tinyConfig());
    c.fill(0x0000, invalidAddr, 0);
    EXPECT_FALSE(c.isUntouchedPrefetch(0x0000));
    EXPECT_EQ(c.takeMeta(0x0000), 0u);
}

TEST(CacheTest, OutcomeReportsUntouchedPrefetchVictim)
{
    Cache c(tinyConfig(2));
    c.fill(0x0000, invalidAddr, kOffChipEntry); // never touched
    c.access(0x0100, MemOp::Load); // B
    auto out = c.access(0x0200, MemOp::Load); // evicts prefetched A
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0000u);
    EXPECT_TRUE(out.victimUntouchedPrefetch);
    EXPECT_EQ(out.victimMeta, kOffChipEntry);
    // A prefetch fill reports its victim the same way.
    out = c.fill(0x0300, invalidAddr, kOffChipEntry);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 0x0100u);
    EXPECT_FALSE(out.victimUntouchedPrefetch);
}

TEST(CacheTest, StoreSetsDirty)
{
    Cache c(tinyConfig());
    c.access(0x0000, MemOp::Store);
    // No public dirty getter; behaviour is exercised via no crash and
    // hit on subsequent access.
    EXPECT_TRUE(c.access(0x0000, MemOp::Load).hit);
}

TEST(CacheTest, MissRate)
{
    Cache c(tinyConfig());
    c.access(0x0000, MemOp::Load);
    c.access(0x0000, MemOp::Load);
    c.access(0x0000, MemOp::Load);
    c.access(0x0000, MemOp::Load);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.25);
}

/**
 * Property sweep: for any geometry, occupancy never exceeds capacity,
 * a just-filled block always hits, and total evictions equal fills
 * minus capacity (once warm).
 */
struct Geometry
{
    std::uint64_t sets;
    std::uint32_t assoc;
    ReplPolicy policy;
};

class CacheProperty : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheProperty, FilledBlockHitsImmediately)
{
    const auto g = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = g.sets * g.assoc * 64;
    cfg.assoc = g.assoc;
    cfg.policy = g.policy;
    Cache c(cfg);
    for (Addr a = 0; a < 1000; a++) {
        const Addr addr = a * 64 * 3; // stride of 3 blocks
        c.access(addr, MemOp::Load);
        ASSERT_TRUE(c.probe(addr)) << "addr " << addr;
    }
}

TEST_P(CacheProperty, EvictionCountMatchesCapacity)
{
    const auto g = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = g.sets * g.assoc * 64;
    cfg.assoc = g.assoc;
    cfg.policy = g.policy;
    Cache c(cfg);
    const std::uint64_t capacity = cfg.numLines();
    const std::uint64_t fills = capacity * 4;
    for (Addr a = 0; a < fills; a++)
        c.access(a * 64, MemOp::Load); // distinct blocks, round robin
    EXPECT_EQ(c.misses(), fills);
    EXPECT_EQ(c.evictions(), fills - capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(Geometry{1, 1, ReplPolicy::LRU},
                      Geometry{4, 2, ReplPolicy::LRU},
                      Geometry{16, 4, ReplPolicy::FIFO},
                      Geometry{8, 8, ReplPolicy::LRU},
                      Geometry{64, 2, ReplPolicy::FIFO},
                      Geometry{4, 2, ReplPolicy::Random},
                      Geometry{512, 2, ReplPolicy::LRU}));

// ---------------------------------------------------------- set scan
//
// The SIMD and portable maskedEqBits kernels must agree bit-for-bit
// on every input: the engines' golden/equivalence suites pin the
// end-to-end consequence, this pins the primitive directly (and on a
// SIMD-less build it degenerates to portable-vs-portable, still
// checking the dispatcher wiring).

template <std::uint32_t Assoc>
void
scanAgreementRound(Rng &rng)
{
    std::uint64_t words[Assoc];
    for (std::uint32_t w = 0; w < Assoc; w++)
        words[w] = rng.next();
    // Mix of structured and random select/want pairs: a tag-style
    // mask, a single-bit valid probe, and raw noise.
    const std::uint64_t selects[] = {~std::uint64_t{0x3e}, 0x01,
                                     rng.next()};
    for (const std::uint64_t select : selects) {
        // Force some matches: copy a masked word into `want` half of
        // the time so the all-zero mask is not the only case covered.
        const std::uint64_t want = (rng.next() & 1)
            ? (words[rng.below(Assoc)] & select)
            : (rng.next() & select);
        const std::uint32_t got = maskedEqBits<Assoc>(words, select,
                                                      want);
        std::uint32_t expect = 0;
        for (std::uint32_t w = 0; w < Assoc; w++)
            expect |= ((words[w] & select) == want ? 1u : 0u) << w;
        ASSERT_EQ(got, expect)
            << "assoc " << Assoc << " select " << select;
        ASSERT_EQ(maskedEqBitsPortable<Assoc>(words, select, want),
                  expect);
        if (got) {
            ASSERT_EQ(firstWay(got),
                      static_cast<std::uint32_t>(
                          __builtin_ctz(expect)));
        }
    }
}

TEST(SetScan, SimdAndPortableKernelsAgree)
{
    Rng rng(0xdecafbad);
    for (int round = 0; round < 20000; round++) {
        scanAgreementRound<2>(rng);
        scanAgreementRound<4>(rng);
        scanAgreementRound<8>(rng);
        scanAgreementRound<16>(rng);
    }
}

TEST(SetScan, MatchlessAndFullMasks)
{
    // Degenerate corners: all ways match, no way matches.
    std::uint64_t words[8];
    for (std::uint32_t w = 0; w < 8; w++)
        words[w] = 0xabcd0000 + w; // differ only in low bits
    EXPECT_EQ(maskedEqBits<8>(words, ~std::uint64_t{0xff},
                              0xabcd0000),
              0xffu);
    EXPECT_EQ(maskedEqBits<8>(words, ~std::uint64_t{0}, 0x1234), 0u);
    EXPECT_EQ(firstWay(0x80u), 7u);
    EXPECT_EQ(firstWay(0x01u), 0u);
}

} // namespace
} // namespace ltc
