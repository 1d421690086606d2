/**
 * @file
 * Stream goldens: digests of the generated reference streams.
 *
 * Every figure and table this repository reproduces is computed from
 * the streams of the synthetic workload generators, so the first
 * records of every catalogue workload are pinned EXACTLY here, as an
 * FNV-1a-64 digest over each record's fields. The engine goldens and
 * the benchmark digests reach only a few workloads; this table
 * reaches all of them.
 *
 * Hand-built sources beside the catalogue make the generators' rare
 * paths fire inside the pinned prefix: a small chase with several
 * accesses per node that mutates on every wrap, a scan whose
 * advancing window wraps, and interleave and phase sources whose
 * finite children end (with and without an infinite sibling).
 *
 * Each stream is read twice, in RefPuller::batchRefs batches as the
 * engines read it and one next() at a time, and both reads must give
 * the pinned digest.
 *
 * Maintenance: `LTC_GOLDEN_PRINT=1 ./ltc_tests
 * --gtest_filter='StreamGolden*'` prints the table in copy-pasteable
 * form after an intended change to a generator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "trace/primitives.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"
#include "util/hash.hh"

namespace ltc
{
namespace
{

/** Records pinned per stream. */
constexpr std::uint64_t kStreamRefs = 200'000;

struct StreamGolden
{
    const char *name;
    std::uint64_t records; //!< short of kStreamRefs for a finite stream
    std::uint64_t digest;
};

const StreamGolden kStreamGolden[] = {
    {"ammp", 200000, 0x6e3592a06256b418ULL},
    {"applu", 200000, 0x6edcf6bec9b75f71ULL},
    {"apsi", 200000, 0xca70585937734225ULL},
    {"art", 200000, 0x20f1724410138925ULL},
    {"bh", 200000, 0xe6e1665eb46f2755ULL},
    {"bzip2", 200000, 0x9f4a8b308d7fcf9dULL},
    {"crafty", 200000, 0x15b46b3bf5136125ULL},
    {"em3d", 200000, 0xfcfc99d15286d4a8ULL},
    {"eon", 200000, 0xda68e22e635e9865ULL},
    {"equake", 200000, 0x2996d14d2b95a075ULL},
    {"facerec", 200000, 0x0e450960e96d7ea5ULL},
    {"fma3d", 200000, 0xf80a54c5a6f5abe9ULL},
    {"galgel", 200000, 0x9b96d8421380a9d5ULL},
    {"gap", 200000, 0x194bc27d56f39a25ULL},
    {"gcc", 200000, 0xb564b3e0555d2ec3ULL},
    {"gzip", 200000, 0x8a8ed6c23c80870aULL},
    {"lucas", 200000, 0xc225e50f55e3f525ULL},
    {"mcf", 200000, 0x423e8a6100f7fcd8ULL},
    {"mesa", 200000, 0xb8d4fab15eeceb25ULL},
    {"mgrid", 200000, 0x376141c3c2438225ULL},
    {"parser", 200000, 0x5bba420b3a5e2eaaULL},
    {"perlbmk", 200000, 0x566a9e518746f168ULL},
    {"sixtrack", 200000, 0xdafce842998d8925ULL},
    {"swim", 200000, 0x6984a2a5af50a4a5ULL},
    {"treeadd", 200000, 0x44351296f75ab202ULL},
    {"twolf", 200000, 0x29477db9c7afbfd8ULL},
    {"vortex", 200000, 0x886e61db9e256e75ULL},
    {"wupwise", 200000, 0x123b0a9871b4f4a5ULL},
    {"chase.mutating", 200000, 0x556781eca5aeca65ULL},
    {"scan.wrapping", 200000, 0x7009d9a879b2ab4dULL},
    {"interleave.children_end", 200000, 0x45d5bbee2ac2f395ULL},
    {"interleave.all_end", 42345, 0x14d0bdc0023bd464ULL},
    {"phases.children_end", 200000, 0x51bc2e4ac2a51f22ULL},
    {"phases.all_end", 53333, 0x39ce187c713dfa19ULL},
};

bool
printMode()
{
    return std::getenv("LTC_GOLDEN_PRINT") != nullptr;
}

/** Running digest of a stream: each record's fields, little-endian. */
struct StreamDigest
{
    std::uint64_t records = 0;
    std::uint64_t digest = 14695981039346656037ULL;

    void
    add(const MemRef &r)
    {
        unsigned char b[8 + 8 + 1 + 4 + 1];
        for (int i = 0; i < 8; i++) {
            b[i] = static_cast<unsigned char>(r.pc >> (8 * i));
            b[8 + i] = static_cast<unsigned char>(r.addr >> (8 * i));
        }
        b[16] = r.op == MemOp::Store ? 1 : 0;
        for (int i = 0; i < 4; i++)
            b[17 + i] = static_cast<unsigned char>(r.nonMemGap >> (8 * i));
        b[21] = r.dependsOnPrev ? 1 : 0;
        digest = fnv1a64(b, sizeof(b), digest);
        records++;
    }
};

StreamDigest
readBatched(TraceSource &src)
{
    StreamDigest d;
    RefPuller puller;
    puller.forEach(src, kStreamRefs, [&d](const MemRef &r) { d.add(r); });
    return d;
}

StreamDigest
readOneAtATime(TraceSource &src)
{
    StreamDigest d;
    MemRef r;
    while (d.records < kStreamRefs && src.next(r))
        d.add(r);
    return d;
}

using SourcePtr = std::unique_ptr<TraceSource>;

/** 3 accesses per node; relinks 10% of the list on every wrap. */
SourcePtr
buildMutatingChase()
{
    PointerChaseParams p;
    p.nodes = 512;
    p.accessesPerNode = 3;
    p.seed = 5;
    p.mutateEveryIters = 1;
    p.mutateFraction = 0.1;
    return std::make_unique<PointerChaseSource>(p, "chase.mutating");
}

/** The second array's window advances 4 KB per sweep, wrapping at 16 KB. */
SourcePtr
buildWrappingScan()
{
    ScanArray a;
    a.base = 0x1000000;
    a.blocks = 40;
    a.accessesPerBlock = 2;
    ScanArray b;
    b.base = 0x2000000;
    b.blocks = 24;
    b.advancePerIter = 4096;
    b.wrapBytes = 16384;
    b.pc = 0x1100;
    b.stores = true;
    return std::make_unique<StridedScanSource>(std::vector<ScanArray>{a, b},
                                               3, "scan.wrapping");
}

SourcePtr
limitedScan(Addr base, std::uint64_t refs)
{
    ScanArray a;
    a.base = base;
    a.blocks = 300;
    a.pc = 0x1200;
    return std::make_unique<LimitSource>(
        std::make_unique<StridedScanSource>(std::vector<ScanArray>{a}, 1),
        refs);
}

SourcePtr
limitedChase(std::uint64_t refs)
{
    PointerChaseParams p;
    p.nodes = 1000;
    p.seed = 9;
    return std::make_unique<LimitSource>(
        std::make_unique<PointerChaseSource>(p), refs);
}

SourcePtr
limitedHash(std::uint64_t refs)
{
    HashProbeParams p;
    p.blocks = 2048;
    p.hotFraction = 0.3;
    p.seed = 13;
    return std::make_unique<LimitSource>(
        std::make_unique<HashProbeSource>(p), refs);
}

SourcePtr
endlessTree()
{
    TreeWalkParams p;
    p.nodes = 511;
    p.regularLayout = false;
    p.seed = 21;
    p.accessesPerNode = 2;
    return std::make_unique<TreeWalkSource>(p);
}

/** Two children end early; the infinite tree carries on alone. */
SourcePtr
buildInterleaveChildrenEnd()
{
    std::vector<SourcePtr> kids;
    kids.push_back(limitedChase(1'001));
    kids.push_back(endlessTree());
    kids.push_back(limitedScan(0x3000000, 7'777));
    return std::make_unique<InterleaveSource>(
        std::move(kids), std::vector<std::uint32_t>{5, 3, 300},
        "interleave.children_end");
}

/** Every child is finite: the stream ends inside the pinned prefix. */
SourcePtr
buildInterleaveAllEnd()
{
    std::vector<SourcePtr> kids;
    kids.push_back(limitedScan(0x4000000, 30'000));
    kids.push_back(limitedHash(12'345));
    return std::make_unique<InterleaveSource>(
        std::move(kids), std::vector<std::uint32_t>{64, 100},
        "interleave.all_end");
}

/** Phases cut by their lengths and by their children ending. */
SourcePtr
buildPhasesChildrenEnd()
{
    std::vector<SourcePtr> kids;
    kids.push_back(limitedHash(2'500));
    kids.push_back(endlessTree());
    kids.push_back(limitedChase(9'000));
    return std::make_unique<PhaseSequenceSource>(
        std::move(kids), std::vector<std::uint64_t>{700, 450, 1'000},
        "phases.children_end");
}

/** Every child is finite: the stream ends inside the pinned prefix. */
SourcePtr
buildPhasesAllEnd()
{
    std::vector<SourcePtr> kids;
    kids.push_back(limitedScan(0x5000000, 20'000));
    kids.push_back(limitedChase(33'333));
    return std::make_unique<PhaseSequenceSource>(
        std::move(kids), std::vector<std::uint64_t>{4'096, 777},
        "phases.all_end");
}

struct StreamCase
{
    std::string name;
    std::function<SourcePtr()> make;
};

/** The catalogue in catalogue order, then the hand-built sources. */
std::vector<StreamCase>
streamCases()
{
    std::vector<StreamCase> cases;
    for (const WorkloadInfo &w : workloadCatalog()) {
        cases.push_back(
            {w.name, [name = w.name] { return makeWorkload(name); }});
    }
    cases.push_back({"chase.mutating", buildMutatingChase});
    cases.push_back({"scan.wrapping", buildWrappingScan});
    cases.push_back(
        {"interleave.children_end", buildInterleaveChildrenEnd});
    cases.push_back({"interleave.all_end", buildInterleaveAllEnd});
    cases.push_back({"phases.children_end", buildPhasesChildrenEnd});
    cases.push_back({"phases.all_end", buildPhasesAllEnd});
    return cases;
}

TEST(StreamGolden, FirstRecordsMatchExactly)
{
    const std::vector<StreamCase> cases = streamCases();
    if (!printMode()) {
        ASSERT_EQ(cases.size(), std::size(kStreamGolden));
    }
    for (std::size_t i = 0; i < cases.size(); i++) {
        const StreamCase &c = cases[i];
        SCOPED_TRACE(c.name);
        const StreamDigest batched = readBatched(*c.make());
        const StreamDigest single = readOneAtATime(*c.make());
        if (printMode()) {
            std::printf("    {\"%s\", %llu, 0x%016llxULL},\n",
                        c.name.c_str(),
                        static_cast<unsigned long long>(batched.records),
                        static_cast<unsigned long long>(batched.digest));
            continue;
        }
        const StreamGolden &g = kStreamGolden[i];
        EXPECT_EQ(c.name, g.name);
        EXPECT_EQ(batched.records, g.records);
        EXPECT_EQ(batched.digest, g.digest);
        EXPECT_EQ(single.records, g.records);
        EXPECT_EQ(single.digest, g.digest);
    }
}

} // namespace
} // namespace ltc
