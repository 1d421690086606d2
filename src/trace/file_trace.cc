#include "trace/file_trace.hh"

#include <algorithm>
#include <memory>

#include "util/logging.hh"

namespace ltc
{

std::vector<MemRef>
readTraceFile(const std::string &path, TraceErrc *err)
{
    StreamingTraceReader reader(path);
    std::vector<MemRef> refs;
    if (reader.ok()) {
        // Cap the pre-allocation: the header count is validated
        // against the file size for v2, but a lying v1 count must
        // not drive a huge up-front reserve either.
        refs.reserve(std::min<std::uint64_t>(reader.records(),
                                             1u << 20));
        constexpr std::size_t batch = 4096;
        std::size_t got;
        do {
            const std::size_t at = refs.size();
            refs.resize(at + batch);
            got = reader.fill(std::span(refs).subspan(at));
            refs.resize(at + got);
        } while (got == batch);
    }
    if (err) {
        *err = reader.error();
        return refs;
    }
    if (!reader.ok()) {
        ltc_fatal("trace file ", path, ": ",
                  traceErrcMessage(reader.error()), " (",
                  traceErrcName(reader.error()), ")");
    }
    return refs;
}

FileTrace::FileTrace(const std::string &path, std::string name)
    : reader_(std::make_unique<StreamingTraceReader>(path)),
      name_(name.empty() ? "file:" + path : std::move(name))
{
    if (!reader_->ok()) {
        ltc_fatal("trace file ", path, ": ",
                  traceErrcMessage(reader_->error()), " (",
                  traceErrcName(reader_->error()), ")");
    }
}

std::size_t
FileTrace::fill(std::span<MemRef> out)
{
    const std::size_t got = reader_->fill(out);
    if (got < out.size() && !reader_->ok()) {
        // The header parsed (the constructor checked), so a mid-stream
        // failure is data corruption: engines cannot recover from a
        // stream that silently ends early, so fail loudly.
        ltc_fatal("trace file ", name_, ": ",
                  traceErrcMessage(reader_->error()), " (",
                  traceErrcName(reader_->error()), ")");
    }
    return got;
}

} // namespace ltc
