/**
 * @file
 * Unit and property tests for the synthetic access-pattern
 * primitives. The key invariants: determinism (reset replays the
 * identical stream), full-coverage traversals (chases and tree walks
 * visit every node), and the structural properties each pattern
 * claims (dependence flags, interleave schedules, hot-set bias).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_sources.hh"
#include "trace/primitives.hh"
#include "trace/trace.hh"

namespace ltc
{
namespace
{

std::vector<MemRef>
take(TraceSource &src, std::size_t n)
{
    std::vector<MemRef> refs;
    MemRef r;
    while (refs.size() < n && src.next(r))
        refs.push_back(r);
    return refs;
}

//
// StridedScanSource
//

TEST(StridedScanTest, SequentialBlocks)
{
    ScanArray a;
    a.base = 0x1000000;
    a.blocks = 4;
    a.accessesPerBlock = 1;
    StridedScanSource src({a}, 2);
    auto refs = take(src, 8);
    for (int i = 0; i < 8; i++) {
        EXPECT_EQ(refs[static_cast<std::size_t>(i)].addr,
                  a.base + static_cast<Addr>(i % 4) * 64);
        EXPECT_EQ(refs[static_cast<std::size_t>(i)].nonMemGap, 2u);
        EXPECT_FALSE(refs[static_cast<std::size_t>(i)].dependsOnPrev);
    }
}

TEST(StridedScanTest, AccessesPerBlockStayInBlock)
{
    ScanArray a;
    a.base = 0x1000000;
    a.blocks = 2;
    a.accessesPerBlock = 3;
    StridedScanSource src({a}, 0);
    auto refs = take(src, 6);
    // First three accesses in block 0, next three in block 1.
    for (int i = 0; i < 3; i++)
        EXPECT_EQ(refs[static_cast<std::size_t>(i)].addr & ~63ull,
                  a.base);
    for (int i = 3; i < 6; i++)
        EXPECT_EQ(refs[static_cast<std::size_t>(i)].addr & ~63ull,
                  a.base + 64);
    // Distinct word offsets and distinct PCs per access index.
    EXPECT_NE(refs[0].addr, refs[1].addr);
    EXPECT_NE(refs[0].pc, refs[1].pc);
}

TEST(StridedScanTest, MultipleArraysInOrder)
{
    ScanArray a;
    a.base = 0x1000000;
    a.blocks = 2;
    a.pc = 0x100;
    ScanArray b;
    b.base = 0x2000000;
    b.blocks = 3;
    b.pc = 0x200;
    StridedScanSource src({a, b}, 0);
    auto refs = take(src, 5);
    EXPECT_EQ(refs[0].addr & ~63ull, a.base);
    EXPECT_EQ(refs[1].addr & ~63ull, a.base + 64);
    EXPECT_EQ(refs[2].addr & ~63ull, b.base);
    EXPECT_EQ(refs[4].addr & ~63ull, b.base + 128);
    EXPECT_EQ(src.iterations(), 1u);
}

TEST(StridedScanTest, AdvancePerIterMovesWindow)
{
    ScanArray a;
    a.base = 0x1000000;
    a.blocks = 2;
    a.advancePerIter = 1024;
    StridedScanSource src({a}, 0);
    auto refs = take(src, 4);
    EXPECT_EQ(refs[0].addr, a.base);
    EXPECT_EQ(refs[2].addr, a.base + 1024); // second sweep shifted
}

TEST(StridedScanTest, ResetReplaysIdentically)
{
    ScanArray a;
    a.base = 0x1000000;
    a.blocks = 7;
    a.accessesPerBlock = 2;
    StridedScanSource src({a}, 1);
    auto first = take(src, 50);
    src.reset();
    auto second = take(src, 50);
    EXPECT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); i++)
        EXPECT_TRUE(first[i] == second[i]) << "ref " << i;
}

TEST(StridedScanTest, StoresFlag)
{
    ScanArray a;
    a.base = 0x1000000;
    a.blocks = 1;
    a.stores = true;
    StridedScanSource src({a}, 0);
    MemRef r;
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.op, MemOp::Store);
}

//
// PointerChaseSource
//

TEST(PointerChaseTest, VisitsEveryNodeOncePerIteration)
{
    PointerChaseParams p;
    p.nodes = 256;
    p.accessesPerNode = 1;
    p.seed = 42;
    PointerChaseSource src(p);
    auto refs = take(src, 256);
    std::set<Addr> blocks;
    for (const auto &r : refs)
        blocks.insert(r.addr & ~63ull);
    EXPECT_EQ(blocks.size(), 256u) << "traversal must be a full cycle";
    EXPECT_EQ(src.iterations(), 1u);
}

TEST(PointerChaseTest, SecondIterationIdenticalOrder)
{
    PointerChaseParams p;
    p.nodes = 128;
    p.seed = 7;
    PointerChaseSource src(p);
    auto first = take(src, 128);
    auto second = take(src, 128);
    for (std::size_t i = 0; i < 128; i++)
        EXPECT_EQ(first[i].addr, second[i].addr) << "pos " << i;
}

TEST(PointerChaseTest, FirstAccessPerNodeDependsOnPrev)
{
    PointerChaseParams p;
    p.nodes = 16;
    p.accessesPerNode = 3;
    PointerChaseSource src(p);
    auto refs = take(src, 9);
    EXPECT_TRUE(refs[0].dependsOnPrev);
    EXPECT_FALSE(refs[1].dependsOnPrev);
    EXPECT_FALSE(refs[2].dependsOnPrev);
    EXPECT_TRUE(refs[3].dependsOnPrev);
}

TEST(PointerChaseTest, ShuffleZeroIsLayoutOrder)
{
    PointerChaseParams p;
    p.nodes = 8;
    p.shuffle = 0.0;
    PointerChaseSource src(p);
    auto refs = take(src, 8);
    for (std::size_t i = 1; i < 8; i++)
        EXPECT_EQ(refs[i].addr, refs[i - 1].addr + p.nodeBytes);
}

TEST(PointerChaseTest, ShuffledOrderIsNotSequential)
{
    PointerChaseParams p;
    p.nodes = 1024;
    p.shuffle = 1.0;
    p.seed = 3;
    PointerChaseSource src(p);
    auto refs = take(src, 1024);
    int sequential = 0;
    for (std::size_t i = 1; i < refs.size(); i++)
        sequential += refs[i].addr == refs[i - 1].addr + p.nodeBytes;
    EXPECT_LT(sequential, 32); // a few by chance are fine
}

TEST(PointerChaseTest, MutationKeepsFullCycle)
{
    PointerChaseParams p;
    p.nodes = 512;
    p.seed = 5;
    p.mutateEveryIters = 1;
    p.mutateFraction = 0.2;
    PointerChaseSource src(p);
    // After several mutations, a full iteration must still visit
    // every node exactly once.
    take(src, 512 * 4);
    auto refs = take(src, 512);
    std::set<Addr> blocks;
    for (const auto &r : refs)
        blocks.insert(r.addr & ~63ull);
    EXPECT_EQ(blocks.size(), 512u);
}

TEST(PointerChaseTest, MutationChangesOrder)
{
    PointerChaseParams p;
    p.nodes = 512;
    p.seed = 5;
    p.mutateEveryIters = 1;
    p.mutateFraction = 0.3;
    PointerChaseSource src(p);
    auto first = take(src, 512);
    auto second = take(src, 512);
    int same = 0;
    for (std::size_t i = 0; i < 512; i++)
        same += first[i].addr == second[i].addr;
    EXPECT_LT(same, 512);
}

TEST(PointerChaseTest, ResetReproducesIncludingMutations)
{
    PointerChaseParams p;
    p.nodes = 256;
    p.seed = 11;
    p.mutateEveryIters = 2;
    p.mutateFraction = 0.2;
    PointerChaseSource src(p);
    auto first = take(src, 256 * 5);
    src.reset();
    auto second = take(src, 256 * 5);
    for (std::size_t i = 0; i < first.size(); i++)
        ASSERT_TRUE(first[i] == second[i]) << "pos " << i;
}

//
// TreeWalkSource
//

TEST(TreeWalkTest, VisitsEveryNode)
{
    TreeWalkParams p;
    p.nodes = 127; // complete tree of depth 7
    TreeWalkSource src(p);
    auto refs = take(src, 127);
    std::set<Addr> blocks;
    for (const auto &r : refs)
        blocks.insert(r.addr & ~63ull);
    EXPECT_EQ(blocks.size(), 127u);
    EXPECT_EQ(src.iterations(), 1u);
}

TEST(TreeWalkTest, RegularLayoutPreOrder)
{
    TreeWalkParams p;
    p.nodes = 7;
    p.regularLayout = true;
    TreeWalkSource src(p);
    auto refs = take(src, 7);
    // Pre-order of the implicit tree 0,1,3,4,2,5,6.
    const std::uint32_t expected[] = {0, 1, 3, 4, 2, 5, 6};
    for (std::size_t i = 0; i < 7; i++)
        EXPECT_EQ(refs[i].addr, p.base + expected[i] * p.nodeBytes);
}

TEST(TreeWalkTest, IrregularLayoutDiffers)
{
    TreeWalkParams reg;
    reg.nodes = 1023;
    reg.regularLayout = true;
    TreeWalkParams irr = reg;
    irr.regularLayout = false;
    irr.seed = 9;
    TreeWalkSource a(reg);
    TreeWalkSource b(irr);
    auto ra = take(a, 1023);
    auto rb = take(b, 1023);
    int same = 0;
    for (std::size_t i = 0; i < 1023; i++)
        same += ra[i].addr == rb[i].addr;
    EXPECT_LT(same, 100);
}

TEST(TreeWalkTest, IterationsRepeatIdentically)
{
    TreeWalkParams p;
    p.nodes = 63;
    p.regularLayout = false;
    p.seed = 4;
    TreeWalkSource src(p);
    auto first = take(src, 63);
    auto second = take(src, 63);
    for (std::size_t i = 0; i < 63; i++)
        EXPECT_EQ(first[i].addr, second[i].addr);
}

TEST(TreeWalkTest, DependsOnPrevPerNode)
{
    TreeWalkParams p;
    p.nodes = 7;
    p.accessesPerNode = 2;
    TreeWalkSource src(p);
    auto refs = take(src, 4);
    EXPECT_TRUE(refs[0].dependsOnPrev);
    EXPECT_FALSE(refs[1].dependsOnPrev);
    EXPECT_TRUE(refs[2].dependsOnPrev);
}

//
// HashProbeSource
//

TEST(HashProbeTest, StaysInRegion)
{
    HashProbeParams p;
    p.base = 0x4000000;
    p.blocks = 100;
    p.blockStride = 1;
    HashProbeSource src(p);
    for (auto &r : take(src, 1000)) {
        EXPECT_GE(r.addr, p.base);
        EXPECT_LT(r.addr, p.base + 100 * 64);
    }
}

TEST(HashProbeTest, HotBiasObserved)
{
    HashProbeParams p;
    p.blocks = 10000;
    p.hotFraction = 0.9;
    p.hotBlocks = 10;
    HashProbeSource src(p);
    int hot = 0;
    auto refs = take(src, 5000);
    for (auto &r : refs)
        hot += (r.addr - p.base) / 64 < 10 * p.blockStride;
    EXPECT_GT(hot, 4000);
}

TEST(HashProbeTest, BlockStrideConfinesSets)
{
    HashProbeParams p;
    p.blocks = 4096;
    p.blockStride = 8;
    HashProbeSource src(p);
    std::set<std::uint64_t> sets;
    for (auto &r : take(src, 4000))
        sets.insert((r.addr >> 6) & 511); // 512-set L1D
    EXPECT_LE(sets.size(), 64u);
}

TEST(HashProbeTest, DeterministicAfterReset)
{
    HashProbeParams p;
    p.blocks = 1000;
    p.seed = 21;
    HashProbeSource src(p);
    auto first = take(src, 100);
    src.reset();
    auto second = take(src, 100);
    for (std::size_t i = 0; i < 100; i++)
        EXPECT_TRUE(first[i] == second[i]);
}

TEST(HashProbeTest, NoShortPeriod)
{
    HashProbeParams p;
    p.blocks = 1 << 16;
    HashProbeSource src(p);
    auto refs = take(src, 1 << 12);
    std::set<Addr> unique;
    for (auto &r : refs)
        unique.insert(r.addr);
    EXPECT_GT(unique.size(), (1u << 12) / 2);
}

TEST(HashProbeTest, StoreFraction)
{
    HashProbeParams p;
    p.blocks = 100;
    p.storeFraction = 0.5;
    HashProbeSource src(p);
    int stores = 0;
    for (auto &r : take(src, 2000))
        stores += r.isStore();
    EXPECT_NEAR(stores / 2000.0, 0.5, 0.05);
}

//
// InterleaveSource
//

std::unique_ptr<TraceSource>
constSource(Addr addr, std::size_t count)
{
    std::vector<MemRef> refs(count);
    for (auto &r : refs)
        r.addr = addr;
    return std::make_unique<VectorTrace>(std::move(refs));
}

TEST(InterleaveTest, ChunkSchedule)
{
    std::vector<std::unique_ptr<TraceSource>> kids;
    kids.push_back(constSource(0xA000, 100));
    kids.push_back(constSource(0xB000, 100));
    InterleaveSource src(std::move(kids), {3, 2});
    auto refs = take(src, 10);
    const Addr expect[] = {0xA000, 0xA000, 0xA000, 0xB000, 0xB000,
                           0xA000, 0xA000, 0xA000, 0xB000, 0xB000};
    for (std::size_t i = 0; i < 10; i++)
        EXPECT_EQ(refs[i].addr, expect[i]) << "pos " << i;
}

TEST(InterleaveTest, SkipsExhaustedChildren)
{
    std::vector<std::unique_ptr<TraceSource>> kids;
    kids.push_back(constSource(0xA000, 2));
    kids.push_back(constSource(0xB000, 6));
    InterleaveSource src(std::move(kids), {2, 2});
    auto refs = take(src, 100);
    EXPECT_EQ(refs.size(), 8u);
    EXPECT_EQ(refs.back().addr, 0xB000u);
}

TEST(InterleaveTest, ChildrenKeepStateAcrossQuotas)
{
    // A child resumes where it left off when its turn comes again.
    std::vector<MemRef> seq(8);
    for (std::size_t i = 0; i < 8; i++)
        seq[i].addr = 0x1000 + i;
    std::vector<std::unique_ptr<TraceSource>> kids;
    kids.push_back(std::make_unique<VectorTrace>(seq));
    kids.push_back(constSource(0xB000, 100));
    InterleaveSource src(std::move(kids), {2, 1});
    auto refs = take(src, 6);
    EXPECT_EQ(refs[0].addr, 0x1000u);
    EXPECT_EQ(refs[1].addr, 0x1001u);
    EXPECT_EQ(refs[2].addr, 0xB000u);
    EXPECT_EQ(refs[3].addr, 0x1002u);
    EXPECT_EQ(refs[4].addr, 0x1003u);
}

//
// Parameterised determinism sweep across all primitive kinds.
//

class PrimitiveDeterminism
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PrimitiveDeterminism, ChaseResetIsIdentical)
{
    PointerChaseParams p;
    p.nodes = 64;
    p.seed = GetParam();
    PointerChaseSource src(p);
    auto first = take(src, 200);
    src.reset();
    auto second = take(src, 200);
    for (std::size_t i = 0; i < first.size(); i++)
        ASSERT_TRUE(first[i] == second[i]);
}

TEST_P(PrimitiveDeterminism, HashResetIsIdentical)
{
    HashProbeParams p;
    p.blocks = 64;
    p.seed = GetParam();
    HashProbeSource src(p);
    auto first = take(src, 200);
    src.reset();
    auto second = take(src, 200);
    for (std::size_t i = 0; i < first.size(); i++)
        ASSERT_TRUE(first[i] == second[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimitiveDeterminism,
                         ::testing::Values(1, 2, 3, 17, 12345));

} // namespace
} // namespace ltc
