/**
 * @file
 * Trace sources and helpers that only the tests build streams with.
 *
 * VectorTrace replays an in-memory vector, LimitSource bounds an
 * infinite generator, collect() materialises a prefix of any source,
 * and writeTraceFile() writes a vector as a v2 container. The
 * simulator, benches and tools never need them: production streams
 * come from the workload generators (trace/workloads.hh) and
 * FileTrace.
 */

#ifndef LTC_TESTS_TEST_SOURCES_HH
#define LTC_TESTS_TEST_SOURCES_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace ltc
{

/** Replay of an in-memory vector of references. */
class VectorTrace final : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<MemRef> refs,
                         std::string name = "vector")
        : refs_(std::move(refs)), name_(std::move(name))
    {
    }

    std::size_t
    fill(std::span<MemRef> out) override
    {
        const std::size_t take =
            std::min(out.size(), refs_.size() - pos_);
        std::copy_n(refs_.data() + pos_, take, out.data());
        pos_ += take;
        return take;
    }

    void reset() override { pos_ = 0; }
    std::string name() const override { return name_; }

  private:
    std::vector<MemRef> refs_;
    std::size_t pos_ = 0;
    std::string name_;
};

/** Bounds a (possibly infinite) source to at most @c limit records. */
class LimitSource final : public TraceSource
{
  public:
    LimitSource(std::unique_ptr<TraceSource> inner, std::uint64_t limit)
        : inner_(std::move(inner)), limit_(limit)
    {
        ltc_assert(inner_ != nullptr, "LimitSource with null inner source");
    }

    std::size_t
    fill(std::span<MemRef> out) override
    {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size(), limit_ - produced_));
        const std::size_t got = inner_->fill(out.first(want));
        produced_ += got;
        return got;
    }

    void
    reset() override
    {
        inner_->reset();
        produced_ = 0;
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t limit_;
    std::uint64_t produced_ = 0;
};

/**
 * Materialise the first @p limit records of @p source into a vector,
 * pulling in batches through fill(). The up-front reservation is
 * clamped to 1M records, so a huge bound does not drive a huge
 * allocation.
 */
inline std::vector<MemRef>
collect(TraceSource &source, std::uint64_t limit)
{
    constexpr std::uint64_t maxReserveRecords = std::uint64_t{1} << 20;
    std::vector<MemRef> refs;
    refs.reserve(static_cast<std::size_t>(
        std::min(limit, maxReserveRecords)));
    while (refs.size() < limit) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(limit - refs.size(), 4096));
        const std::size_t base = refs.size();
        refs.resize(base + want);
        const std::size_t got =
            source.fill({refs.data() + base, want});
        refs.resize(base + got);
        if (got < want)
            break;
    }
    return refs;
}

/** Write @p refs to @p path as a v2 container; fatal on I/O failure. */
inline void
writeTraceFile(const std::string &path, const std::vector<MemRef> &refs)
{
    StreamingTraceWriter writer(path);
    for (const MemRef &ref : refs)
        writer.append(ref);
    const TraceErrc errc = writer.finish();
    if (errc != TraceErrc::Ok) {
        ltc_fatal("cannot write trace file ", path, ": ",
                  traceErrcMessage(errc));
    }
}

} // namespace ltc

#endif // LTC_TESTS_TEST_SOURCES_HH
