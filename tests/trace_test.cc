/**
 * @file
 * Unit tests for the trace infrastructure: sources, adapters, the
 * shared pull loop, file round trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "test_sources.hh"
#include "trace/file_trace.hh"
#include "trace/trace.hh"

namespace ltc
{
namespace
{

std::vector<MemRef>
sampleRefs(std::size_t n)
{
    std::vector<MemRef> refs;
    for (std::size_t i = 0; i < n; i++) {
        MemRef r;
        r.pc = 0x1000 + i * 4;
        r.addr = 0x10000 + i * 64;
        r.op = i % 3 == 0 ? MemOp::Store : MemOp::Load;
        r.nonMemGap = static_cast<std::uint32_t>(i % 7);
        r.dependsOnPrev = i % 2 == 0;
        refs.push_back(r);
    }
    return refs;
}

TEST(VectorTraceTest, ReplaysInOrder)
{
    auto refs = sampleRefs(10);
    VectorTrace t(refs);
    MemRef out;
    for (std::size_t i = 0; i < refs.size(); i++) {
        ASSERT_TRUE(t.next(out));
        EXPECT_TRUE(out == refs[i]);
    }
    EXPECT_FALSE(t.next(out));
}

TEST(VectorTraceTest, ResetRestarts)
{
    auto refs = sampleRefs(3);
    VectorTrace t(refs);
    MemRef out;
    while (t.next(out)) {
    }
    t.reset();
    ASSERT_TRUE(t.next(out));
    EXPECT_TRUE(out == refs[0]);
}

TEST(LimitSourceTest, BoundsOutput)
{
    auto inner = std::make_unique<VectorTrace>(sampleRefs(100));
    LimitSource limited(std::move(inner), 7);
    MemRef out;
    int n = 0;
    while (limited.next(out))
        n++;
    EXPECT_EQ(n, 7);
}

TEST(LimitSourceTest, ResetRestoresBudget)
{
    auto inner = std::make_unique<VectorTrace>(sampleRefs(100));
    LimitSource limited(std::move(inner), 5);
    MemRef out;
    while (limited.next(out)) {
    }
    limited.reset();
    int n = 0;
    while (limited.next(out))
        n++;
    EXPECT_EQ(n, 5);
}

TEST(ShiftSourceTest, AddsOffset)
{
    auto refs = sampleRefs(4);
    auto inner = std::make_unique<VectorTrace>(refs);
    ShiftSource shifted(std::move(inner), 0x100000);
    MemRef out;
    ASSERT_TRUE(shifted.next(out));
    EXPECT_EQ(out.addr, refs[0].addr + 0x100000);
    EXPECT_EQ(out.pc, refs[0].pc); // PCs unchanged
}

TEST(CollectTest, GathersUpToLimit)
{
    VectorTrace t(sampleRefs(10));
    auto collected = collect(t, 4);
    EXPECT_EQ(collected.size(), 4u);
    t.reset();
    collected = collect(t, 100);
    EXPECT_EQ(collected.size(), 10u);
}

/** A finite source that records the size of every fill() request. */
class RecordingSource final : public TraceSource
{
  public:
    explicit RecordingSource(std::size_t records)
        : refs(sampleRefs(records)), inner_(refs)
    {
    }

    std::size_t
    fill(std::span<MemRef> out) override
    {
        requests.push_back(out.size());
        return inner_.fill(out);
    }

    void reset() override { inner_.reset(); }
    std::string name() const override { return "recording"; }

    const std::vector<MemRef> refs;    //!< the stream, in order
    std::vector<std::size_t> requests; //!< every fill() request size

  private:
    VectorTrace inner_;
};

/** Run @p refs through a fresh puller; return what the body saw. */
std::vector<MemRef>
pullAll(RecordingSource &src, std::uint64_t refs, std::uint64_t &done)
{
    RefPuller puller;
    std::vector<MemRef> seen;
    done = puller.forEach(src, refs,
                          [&seen](const MemRef &r) { seen.push_back(r); });
    return seen;
}

TEST(RefPullerTest, NeverRequestsPastBatchOrBudget)
{
    for (const std::uint64_t budget : {1u, 255u, 256u, 257u, 777u}) {
        SCOPED_TRACE(budget);
        RecordingSource src(1000);
        std::uint64_t done = 0;
        pullAll(src, budget, done);
        EXPECT_EQ(done, budget);
        std::uint64_t requested = 0;
        for (const std::size_t want : src.requests) {
            EXPECT_LE(want, RefPuller::batchRefs);
            EXPECT_LE(want, budget - requested);
            requested += want;
        }
        EXPECT_EQ(requested, budget);
    }
}

TEST(RefPullerTest, ZeroBudgetMakesNoFill)
{
    RecordingSource src(10);
    std::uint64_t done = 1;
    EXPECT_TRUE(pullAll(src, 0, done).empty());
    EXPECT_EQ(done, 0u);
    EXPECT_TRUE(src.requests.empty());
}

TEST(RefPullerTest, ShortFillEndsTheTrace)
{
    // 300 records under a 1000-record budget: one full batch, then a
    // short fill (44 of 256), and no further request.
    RecordingSource src(300);
    std::uint64_t done = 0;
    const auto seen = pullAll(src, 1000, done);
    EXPECT_EQ(done, 300u);
    EXPECT_EQ(seen.size(), 300u);
    EXPECT_EQ(src.requests,
              (std::vector<std::size_t>{RefPuller::batchRefs,
                                        RefPuller::batchRefs}));
}

TEST(RefPullerTest, DeliversTheWholeStreamInOrder)
{
    // 512 records are exactly two full batches; the third request
    // comes back empty and ends the loop.
    RecordingSource src(512);
    std::uint64_t done = 0;
    const auto seen = pullAll(src, 1000, done);
    EXPECT_EQ(done, 512u);
    ASSERT_EQ(seen.size(), src.refs.size());
    for (std::size_t i = 0; i < seen.size(); i++)
        EXPECT_TRUE(seen[i] == src.refs[i]) << "record " << i;
    EXPECT_EQ(src.requests.size(), 3u);
}

TEST(FileTraceTest, RoundTrip)
{
    const std::string path = ::testing::TempDir() + "/ltc_trace_rt.bin";
    auto refs = sampleRefs(50);
    writeTraceFile(path, refs);
    auto back = readTraceFile(path);
    ASSERT_EQ(back.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); i++)
        EXPECT_TRUE(back[i] == refs[i]) << "record " << i;
    std::remove(path.c_str());
}

TEST(FileTraceTest, SourceReplaysFile)
{
    const std::string path = ::testing::TempDir() + "/ltc_trace_src.bin";
    auto refs = sampleRefs(8);
    writeTraceFile(path, refs);
    FileTrace t(path);
    EXPECT_EQ(t.size(), 8u);
    MemRef out;
    int n = 0;
    while (t.next(out))
        n++;
    EXPECT_EQ(n, 8);
    t.reset();
    ASSERT_TRUE(t.next(out));
    EXPECT_TRUE(out == refs[0]);
    std::remove(path.c_str());
}

TEST(FileTraceDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(readTraceFile("/nonexistent/ltc.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(FileTraceDeathTest, BadMagicIsFatal)
{
    const std::string path = ::testing::TempDir() + "/ltc_bad_magic.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("NOTATRACE1234567", 1, 16, f);
    std::fclose(f);
    EXPECT_EXIT(readTraceFile(path), ::testing::ExitedWithCode(1),
                "bad trace magic");
    std::remove(path.c_str());
}

} // namespace
} // namespace ltc
