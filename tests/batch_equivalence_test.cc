/**
 * @file
 * Batch/scalar equivalence property suite.
 *
 * A source defines its stream in fill(), and next() is fill() of one
 * record, so the source cases compare random batch-size schedules
 * against one-record fills: that drives the chunk-boundary logic of
 * the composing and bounding adapters (interleave, phases, limit) and
 * of the file reader. The engine cases check that both engines'
 * batched run loops give the identical CoverageStats/TimingStats as
 * a manual next()/step() loop.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"
#include "trace/file_trace.hh"
#include "trace/primitives.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"
#include "util/random.hh"

namespace ltc
{
namespace
{

/** Factory for one adapter under test. */
struct SourceCase
{
    std::string name;
    std::unique_ptr<TraceSource> (*make)();
};

std::vector<MemRef>
sampleRefs(std::size_t n)
{
    std::vector<MemRef> refs;
    Rng rng(99);
    Addr addr = 0x1000;
    for (std::size_t i = 0; i < n; i++) {
        MemRef r;
        r.pc = 0x400000 + (i % 7) * 4;
        addr += (rng.below(5) + 1) * 64;
        r.addr = addr;
        r.op = rng.chance(0.3) ? MemOp::Store : MemOp::Load;
        r.nonMemGap = static_cast<std::uint32_t>(rng.below(9));
        r.dependsOnPrev = rng.chance(0.25);
        refs.push_back(r);
    }
    return refs;
}

std::unique_ptr<TraceSource>
makeVector()
{
    return std::make_unique<VectorTrace>(sampleRefs(10'000));
}

std::unique_ptr<TraceSource>
makeLimited()
{
    PointerChaseParams p;
    p.nodes = 512;
    p.seed = 3;
    return std::make_unique<LimitSource>(
        std::make_unique<PointerChaseSource>(p), 7'777);
}

std::unique_ptr<TraceSource>
makeShifted()
{
    ScanArray a;
    a.base = 0x100000;
    a.blocks = 300;
    a.accessesPerBlock = 3;
    return std::make_unique<ShiftSource>(
        std::make_unique<StridedScanSource>(std::vector<ScanArray>{a},
                                            2),
        0x40000000);
}

std::unique_ptr<TraceSource>
makeScan()
{
    ScanArray a;
    a.base = 0x2000000;
    a.blocks = 1024;
    a.accessesPerBlock = 2;
    ScanArray b;
    b.base = 0x4000000;
    b.blocks = 97;
    b.accessesPerBlock = 1;
    b.stores = true;
    return std::make_unique<StridedScanSource>(
        std::vector<ScanArray>{a, b}, 3);
}

std::unique_ptr<TraceSource>
makeChase()
{
    PointerChaseParams p;
    p.nodes = 2048;
    p.seed = 11;
    p.mutateEveryIters = 2;
    p.mutateFraction = 0.05;
    return std::make_unique<PointerChaseSource>(p);
}

std::unique_ptr<TraceSource>
makeTree()
{
    TreeWalkParams p;
    p.nodes = 1023;
    p.regularLayout = false;
    p.seed = 17;
    p.accessesPerNode = 2;
    return std::make_unique<TreeWalkSource>(p);
}

std::unique_ptr<TraceSource>
makeHash()
{
    HashProbeParams p;
    p.blocks = 4096;
    p.hotFraction = 0.4;
    p.seed = 23;
    return std::make_unique<HashProbeSource>(p);
}

std::unique_ptr<TraceSource>
makeInterleave()
{
    // A finite child (vector) interleaved with an infinite one and a
    // second finite one: exercises the child-exhaustion path.
    std::vector<std::unique_ptr<TraceSource>> kids;
    kids.push_back(std::make_unique<VectorTrace>(sampleRefs(1'000)));
    ScanArray a;
    a.base = 0x3000000;
    a.blocks = 128;
    kids.push_back(std::make_unique<StridedScanSource>(
        std::vector<ScanArray>{a}, 1));
    kids.push_back(std::make_unique<VectorTrace>(sampleRefs(321)));
    return std::make_unique<InterleaveSource>(
        std::move(kids), std::vector<std::uint32_t>{5, 3, 2});
}

std::unique_ptr<TraceSource>
makePhases()
{
    std::vector<std::unique_ptr<TraceSource>> kids;
    kids.push_back(std::make_unique<VectorTrace>(sampleRefs(2'000)));
    ScanArray a;
    a.base = 0x5000000;
    a.blocks = 64;
    kids.push_back(std::make_unique<StridedScanSource>(
        std::vector<ScanArray>{a}, 2));
    return std::make_unique<PhaseSequenceSource>(
        std::move(kids), std::vector<std::uint64_t>{700, 450});
}

std::unique_ptr<TraceSource>
makeWorkloadMcf()
{
    return makeWorkload("mcf");
}

const SourceCase kSources[] = {
    {"vector", makeVector},     {"limit", makeLimited},
    {"shift", makeShifted},     {"scan", makeScan},
    {"chase", makeChase},       {"tree", makeTree},
    {"hash", makeHash},         {"interleave", makeInterleave},
    {"phases", makePhases},     {"workload:mcf", makeWorkloadMcf},
};

/** Deterministic "random" batch-size schedule. */
std::size_t
nextBatchSize(Rng &rng)
{
    static const std::size_t sizes[] = {1, 2, 3, 7, 64, 255, 256,
                                        257, 1000};
    return sizes[rng.below(std::size(sizes))];
}

constexpr std::uint64_t kStreamRefs = 60'000;

// ---------------------------------------------------------- streams

TEST(BatchEquivalence, FillMatchesNextForEveryAdapter)
{
    for (const SourceCase &c : kSources) {
        SCOPED_TRACE(c.name);
        auto scalar = c.make();
        auto batched = c.make();

        Rng rng(1234);
        std::vector<MemRef> buf(1000);
        std::uint64_t produced = 0;
        bool scalar_ended = false;
        while (produced < kStreamRefs && !scalar_ended) {
            const std::size_t want = nextBatchSize(rng);
            const std::size_t got = batched->fill({buf.data(), want});
            for (std::size_t i = 0; i < got; i++) {
                MemRef ref;
                ASSERT_TRUE(scalar->next(ref))
                    << "scalar ended before batch at record "
                    << produced + i;
                ASSERT_TRUE(ref == buf[i])
                    << "divergence at record " << produced + i;
            }
            produced += got;
            if (got < want) {
                MemRef ref;
                EXPECT_FALSE(scalar->next(ref))
                    << "batch ended early at record " << produced;
                scalar_ended = true;
            }
        }
    }
}

TEST(BatchEquivalence, FillMatchesNextAfterReset)
{
    for (const SourceCase &c : kSources) {
        SCOPED_TRACE(c.name);
        auto src = c.make();

        // Consume a prefix via fill, reset, then replay via next and
        // compare against a second fill pass: reset must restart the
        // identical stream whichever path consumed it.
        std::vector<MemRef> first(4'000);
        const std::size_t got =
            src->fill({first.data(), first.size()});
        src->reset();
        std::vector<MemRef> second;
        MemRef ref;
        while (second.size() < got && src->next(ref))
            second.push_back(ref);
        ASSERT_EQ(second.size(), got);
        for (std::size_t i = 0; i < got; i++)
            ASSERT_TRUE(first[i] == second[i]) << "record " << i;
    }
}

TEST(BatchEquivalence, FileTraceFillMatchesNext)
{
    const std::string path = testing::TempDir() + "batch_equiv.ltct";
    auto src = makeScan();
    ASSERT_EQ(captureToFile(*src, path, 50'000, nullptr,
                            /*chunk_records=*/512),
              TraceErrc::Ok);

    FileTrace scalar(path);
    FileTrace batched(path);
    Rng rng(77);
    std::vector<MemRef> buf(1000);
    std::uint64_t produced = 0;
    for (;;) {
        const std::size_t want = nextBatchSize(rng);
        const std::size_t got = batched.fill({buf.data(), want});
        for (std::size_t i = 0; i < got; i++) {
            MemRef ref;
            ASSERT_TRUE(scalar.next(ref));
            ASSERT_TRUE(ref == buf[i])
                << "divergence at record " << produced + i;
        }
        produced += got;
        if (got < want)
            break;
    }
    MemRef ref;
    EXPECT_FALSE(scalar.next(ref));
    EXPECT_EQ(produced, 50'000u);
}

// ---------------------------------------------------------- engines

void
expectSameCoverage(const CoverageStats &a, const CoverageStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.uselessPrefetches, b.uselessPrefetches);
    EXPECT_EQ(a.early, b.early);
    for (unsigned t = 0;
         t < static_cast<unsigned>(Traffic::NumClasses); t++) {
        EXPECT_EQ(a.traffic.bytes(static_cast<Traffic>(t)),
                  b.traffic.bytes(static_cast<Traffic>(t)))
            << "traffic class " << t;
    }
}

/** Engine-level property: run() == manual next()+step() loop. */
void
checkTraceEngine(const std::string &pred_name,
                 const HierarchyConfig &hc = paperHierarchy(),
                 std::uint64_t refs = 120'000)
{
    SCOPED_TRACE(pred_name);

    auto src_batch = makeWorkload("mcf");
    auto pred_batch = makePredictor(pred_name, hc);
    TraceEngine batched(hc, pred_batch.get());
    // Split the budget over several run() calls so batch remainders
    // and re-entry are covered too.
    std::uint64_t done = 0;
    done += batched.run(*src_batch, 50'000);
    done += batched.run(*src_batch, 1);
    done += batched.run(*src_batch, refs - done);
    ASSERT_EQ(done, refs);

    auto src_scalar = makeWorkload("mcf");
    auto pred_scalar = makePredictor(pred_name, hc);
    TraceEngine scalar(hc, pred_scalar.get());
    MemRef ref;
    for (std::uint64_t i = 0; i < refs; i++) {
        ASSERT_TRUE(src_scalar->next(ref));
        scalar.step(ref);
    }

    expectSameCoverage(batched.stats(), scalar.stats());
    EXPECT_EQ(batched.hierarchy().l1d().accesses(),
              scalar.hierarchy().l1d().accesses());
    EXPECT_EQ(batched.hierarchy().l1d().misses(),
              scalar.hierarchy().l1d().misses());
    EXPECT_EQ(batched.hierarchy().l1d().evictions(),
              scalar.hierarchy().l1d().evictions());
    EXPECT_EQ(batched.hierarchy().l2().accesses(),
              scalar.hierarchy().l2().accesses());
    EXPECT_EQ(batched.hierarchy().l2().misses(),
              scalar.hierarchy().l2().misses());
}

TEST(BatchEquivalence, TraceEngineBaselineKernel)
{
    // pred == nullptr exercises the trimmed baseline body.
    checkTraceEngine("none");
}

TEST(BatchEquivalence, TraceEngineWithPredictors)
{
    checkTraceEngine("lt-cords");
    checkTraceEngine("ghb");
    checkTraceEngine("dbcp");
}

TEST(BatchEquivalence, TraceEngineReplacementPolicies)
{
    // Every policy plugin, through both the trimmed baseline body
    // ("none") and the full stepImpl body. Random's per-conflict RNG
    // draw order and DeadBlock's markDead wiring are part of the
    // batched/scalar contract.
    for (const ReplPolicy p : allReplPolicies) {
        SCOPED_TRACE(replPolicyName(p));
        HierarchyConfig hc = paperHierarchy();
        hc.l1d.policy = p;
        hc.l2.policy = p;
        checkTraceEngine("none", hc, 60'000);
        checkTraceEngine("lt-cords", hc, 60'000);
    }
}

TEST(BatchEquivalence, TraceEngineWritebackModelling)
{
    // modelWritebacks disables the trimmed baseline body (it reports
    // no victims); stepImpl must carry the writeback charges
    // identically at static and runtime dispatch.
    HierarchyConfig hc = paperHierarchy();
    hc.modelWritebacks = true;
    checkTraceEngine("none", hc, 60'000);
    checkTraceEngine("lt-cords", hc, 60'000);
}

TEST(BatchEquivalence, TimingEngineMatchesScalar)
{
    for (const char *pred_name : {"none", "lt-cords"}) {
        SCOPED_TRACE(pred_name);
        const std::uint64_t refs = 60'000;

        auto src_batch = makeWorkload("em3d");
        auto pred_batch = makePredictor(pred_name, paperHierarchy(),
                                        true);
        TimingSim batched(paperTiming(), pred_batch.get());
        ASSERT_EQ(batched.run(*src_batch, refs), refs);

        auto src_scalar = makeWorkload("em3d");
        auto pred_scalar = makePredictor(pred_name, paperHierarchy(),
                                         true);
        TimingSim scalar(paperTiming(), pred_scalar.get());
        MemRef ref;
        for (std::uint64_t i = 0; i < refs; i++) {
            ASSERT_TRUE(src_scalar->next(ref));
            scalar.step(ref);
        }

        const TimingStats a = batched.stats();
        const TimingStats b = scalar.stats();
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.accesses, b.accesses);
        EXPECT_EQ(a.l1Misses, b.l1Misses);
        EXPECT_EQ(a.l2Misses, b.l2Misses);
        EXPECT_EQ(a.correct, b.correct);
        EXPECT_EQ(a.partial, b.partial);
        EXPECT_EQ(a.useless, b.useless);
        EXPECT_EQ(a.dropped, b.dropped);
        EXPECT_EQ(a.missLatencyTotal, b.missLatencyTotal);
        EXPECT_EQ(a.memBusBusy, b.memBusBusy);
        EXPECT_EQ(a.l1l2BusBusy, b.l1l2BusBusy);
    }
}

/**
 * The baseline kernel must also agree for geometries outside the
 * specialized (L1 assoc, L2 assoc) dispatch table, and interleave
 * with manual step() calls without drift.
 */
TEST(BatchEquivalence, BaselineKernelGenericGeometryAndMixedUse)
{
    HierarchyConfig hc = paperHierarchy();
    hc.l1d.assoc = 8; // off the dispatch table -> runtime loop
    hc.l2.assoc = 4;

    auto src_batch = makeWorkload("gcc");
    TraceEngine batched(hc, nullptr);
    batched.run(*src_batch, 30'000);
    // Mixed use: scalar steps between batched runs.
    MemRef ref;
    for (int i = 0; i < 1'000; i++) {
        ASSERT_TRUE(src_batch->next(ref));
        batched.step(ref);
    }
    batched.run(*src_batch, 30'000);

    auto src_scalar = makeWorkload("gcc");
    TraceEngine scalar(hc, nullptr);
    for (std::uint64_t i = 0; i < 61'000; i++) {
        ASSERT_TRUE(src_scalar->next(ref));
        scalar.step(ref);
    }

    expectSameCoverage(batched.stats(), scalar.stats());
}

} // namespace
} // namespace ltc
