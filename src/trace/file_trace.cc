#include "trace/file_trace.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "util/logging.hh"

namespace ltc
{

namespace
{

constexpr char magic[8] = {'L', 'T', 'C', 'T', 'R', 'A', 'C', 'E'};

/** v1 on-disk record: 8B pc, 8B addr, 1B op, 1B flags, 4B gap. */
constexpr std::size_t v1RecordBytes = 8 + 8 + 1 + 1 + 4;

void
putU32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; i++)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; i++)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

void
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

void
writeTraceFileV1(const std::string &path,
                 const std::vector<MemRef> &refs)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        ltc_fatal("cannot open trace file for writing: ", path);

    unsigned char header[16];
    std::memcpy(header, magic, 8);
    putU32(header + 8, 1);
    putU32(header + 12, static_cast<std::uint32_t>(refs.size()));
    if (std::fwrite(header, 1, sizeof(header), f.get()) != sizeof(header))
        ltc_fatal("short write on trace header: ", path);

    std::vector<unsigned char> buf(v1RecordBytes);
    for (const MemRef &ref : refs) {
        putU64(buf.data(), ref.pc);
        putU64(buf.data() + 8, ref.addr);
        buf[16] = ref.op == MemOp::Store ? 1 : 0;
        buf[17] = ref.dependsOnPrev ? 1 : 0;
        putU32(buf.data() + 18, ref.nonMemGap);
        if (std::fwrite(buf.data(), 1, v1RecordBytes, f.get()) !=
            v1RecordBytes) {
            ltc_fatal("short write on trace record: ", path);
        }
    }
}

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
        MemRef ref;
        while (reader.next(ref))
            refs.push_back(ref);
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
