#include "trace/trace.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ltc
{

VectorTrace::VectorTrace(std::vector<MemRef> refs, std::string name)
    : refs_(std::move(refs)), name_(std::move(name))
{
}

std::size_t
VectorTrace::fill(std::span<MemRef> out)
{
    const std::size_t take = std::min(out.size(), refs_.size() - pos_);
    std::copy_n(refs_.data() + pos_, take, out.data());
    pos_ += take;
    return take;
}

LimitSource::LimitSource(std::unique_ptr<TraceSource> inner,
                         std::uint64_t limit)
    : inner_(std::move(inner)), limit_(limit)
{
    ltc_assert(inner_ != nullptr, "LimitSource with null inner source");
}

std::size_t
LimitSource::fill(std::span<MemRef> out)
{
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(out.size(), limit_ - produced_));
    const std::size_t got = inner_->fill(out.first(want));
    produced_ += got;
    return got;
}

void
LimitSource::reset()
{
    inner_->reset();
    produced_ = 0;
}

ShiftSource::ShiftSource(std::unique_ptr<TraceSource> inner, Addr offset)
    : inner_(std::move(inner)), offset_(offset)
{
    ltc_assert(inner_ != nullptr, "ShiftSource with null inner source");
}

std::size_t
ShiftSource::fill(std::span<MemRef> out)
{
    const std::size_t got = inner_->fill(out);
    for (std::size_t i = 0; i < got; i++)
        out[i].addr += offset_;
    return got;
}

std::vector<MemRef>
collect(TraceSource &source, std::uint64_t limit)
{
    // Clamp the up-front reservation to 1M records; past it,
    // geometric growth takes over.
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

} // namespace ltc
