#include "trace/trace.hh"

#include "util/logging.hh"

namespace ltc
{

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

} // namespace ltc
