#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>

#include "trace/trace.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/varint.hh"

namespace ltc
{

namespace
{

constexpr char magic[8] = {'L', 'T', 'C', 'T', 'R', 'A', 'C', 'E'};

// v1: 16-byte header (magic, u32 version, u32 count) then packed
// 22-byte records. v2: 32-byte header (magic, u32 version, u32 chunk
// capacity, u64 count, u64 reserved) then chunks, each a 16-byte
// header (u32 records, u32 payload bytes, u32 fnv1a checksum, u32
// reserved) followed by the delta/varint payload.
constexpr std::size_t v1HeaderBytes = 16;
constexpr std::size_t v1RecordBytes = 8 + 8 + 1 + 1 + 4;
constexpr std::size_t v2HeaderBytes = 32;
constexpr std::size_t chunkHeaderBytes = 16;
constexpr std::uint64_t v2CountOffset = 16;

/** v1 replay buffers this many records at a time. */
constexpr std::uint32_t v1BufferRecords = 4096;

/** Sanity ceiling on a v2 chunk capacity (16M records). */
constexpr std::uint32_t maxChunkRecords = 1u << 24;

/**
 * Worst-case encoded record: control byte + two 10-byte varint
 * deltas + a 10-byte varint gap. Bounds payload allocations when a
 * chunk header is corrupt.
 */
constexpr std::uint64_t maxRecordBytes = 1 + 10 + 10 + 10;

/** Control byte: bit0 store, bit1 dependsOnPrev, bits 2-7 gap. */
constexpr unsigned char ctrlStore = 0x01;
constexpr unsigned char ctrlDepends = 0x02;
constexpr unsigned ctrlGapShift = 2;
/** Gap field value meaning "varint gap follows". */
constexpr std::uint32_t ctrlGapEscape = 63;

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

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; i++)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

int
closeFile(std::FILE *f)
{
    return f ? std::fclose(f) : 0;
}

/** Encode @p ref against (@p prev_pc, @p prev_addr) onto @p out. */
void
encodeRecord(std::vector<unsigned char> &out, const MemRef &ref,
             Addr &prev_pc, Addr &prev_addr)
{
    unsigned char ctrl = 0;
    if (ref.op == MemOp::Store)
        ctrl |= ctrlStore;
    if (ref.dependsOnPrev)
        ctrl |= ctrlDepends;
    const bool gap_inline = ref.nonMemGap < ctrlGapEscape;
    const std::uint32_t gap_field =
        gap_inline ? ref.nonMemGap : ctrlGapEscape;
    ctrl |= static_cast<unsigned char>(gap_field << ctrlGapShift);
    out.push_back(ctrl);
    putVarint(out, zigzagEncode(
        static_cast<std::int64_t>(ref.pc - prev_pc)));
    putVarint(out, zigzagEncode(
        static_cast<std::int64_t>(ref.addr - prev_addr)));
    if (!gap_inline)
        putVarint(out, ref.nonMemGap);
    prev_pc = ref.pc;
    prev_addr = ref.addr;
}

/**
 * Decode one record from [@p p, @p end).
 * @return Pointer past the record, or nullptr on malformed input.
 */
const unsigned char *
decodeRecord(const unsigned char *p, const unsigned char *end,
             MemRef &out, Addr &prev_pc, Addr &prev_addr)
{
    if (p == end)
        return nullptr;
    const unsigned char ctrl = *p++;
    std::uint64_t v = 0;
    if (!(p = getVarint(p, end, v)))
        return nullptr;
    prev_pc += static_cast<Addr>(zigzagDecode(v));
    if (!(p = getVarint(p, end, v)))
        return nullptr;
    prev_addr += static_cast<Addr>(zigzagDecode(v));
    std::uint32_t gap = ctrl >> ctrlGapShift;
    if (gap == ctrlGapEscape) {
        if (!(p = getVarint(p, end, v)))
            return nullptr;
        if (v > 0xffffffffULL)
            return nullptr; // nonMemGap is 32-bit
        gap = static_cast<std::uint32_t>(v);
    }
    out.pc = prev_pc;
    out.addr = prev_addr;
    out.op = (ctrl & ctrlStore) ? MemOp::Store : MemOp::Load;
    out.dependsOnPrev = (ctrl & ctrlDepends) != 0;
    out.nonMemGap = gap;
    return p;
}

/** Decode a v1 fixed-width record. */
MemRef
decodeV1Record(const unsigned char *p)
{
    MemRef ref;
    ref.pc = getU64(p);
    ref.addr = getU64(p + 8);
    ref.op = p[16] ? MemOp::Store : MemOp::Load;
    ref.dependsOnPrev = p[17] != 0;
    ref.nonMemGap = getU32(p + 18);
    return ref;
}

/**
 * Parse a container header from @p f (positioned at the start) and
 * leave the stream at the first record or chunk. @p file_bytes
 * receives the file's size. A v2 record count the file cannot hold
 * is a BadHeader, so a corrupt count cannot drive huge allocations or
 * endless chunk loops: no encoding packs a record into fewer than 3
 * payload bytes. (v1 counts are detected lazily as TruncatedChunk so
 * a truncated body keeps its historical error.)
 */
TraceErrc
readHeader(std::FILE *f, std::uint32_t &version, std::uint64_t &records,
           std::uint32_t &chunk_records, std::uint64_t &file_bytes)
{
    unsigned char header[v2HeaderBytes];
    if (std::fread(header, 1, v1HeaderBytes, f) != v1HeaderBytes)
        return TraceErrc::TruncatedHeader;
    if (std::memcmp(header, magic, 8) != 0)
        return TraceErrc::BadMagic;
    version = getU32(header + 8);
    if (version == 1) {
        records = getU32(header + 12);
        chunk_records = v1BufferRecords;
    } else if (version == 2) {
        if (std::fread(header + v1HeaderBytes, 1,
                       v2HeaderBytes - v1HeaderBytes,
                       f) != v2HeaderBytes - v1HeaderBytes) {
            return TraceErrc::TruncatedHeader;
        }
        chunk_records = getU32(header + 12);
        records = getU64(header + 16);
        if (chunk_records == 0 || chunk_records > maxChunkRecords)
            return TraceErrc::BadHeader;
    } else {
        return TraceErrc::UnsupportedVersion;
    }

    const long data_start = std::ftell(f);
    if (std::fseek(f, 0, SEEK_END) != 0)
        return TraceErrc::Ok;
    const long size = std::ftell(f);
    if (size >= 0) {
        file_bytes = static_cast<std::uint64_t>(size);
        if (version == 2 && records > file_bytes / 3 + 1)
            return TraceErrc::BadHeader;
    }
    if (std::fseek(f, data_start, SEEK_SET) != 0)
        return TraceErrc::TruncatedHeader;
    return TraceErrc::Ok;
}

/**
 * Read the next v2 chunk from @p f: its header, validated against the
 * chunk capacity and the @p remaining_records the file header still
 * promises, then its payload into @p payload, verified against the
 * header's FNV-1a checksum. @p count receives the chunk's record
 * count.
 */
TraceErrc
readChunk(std::FILE *f, std::uint32_t chunk_capacity,
          std::uint64_t remaining_records, std::uint32_t &count,
          std::vector<unsigned char> &payload)
{
    unsigned char header[chunkHeaderBytes];
    if (std::fread(header, 1, chunkHeaderBytes, f) != chunkHeaderBytes)
        return TraceErrc::TruncatedChunk;
    count = getU32(header);
    const std::uint32_t payload_bytes = getU32(header + 4);
    if (count == 0 || count > chunk_capacity)
        return TraceErrc::BadHeader;
    if (count > remaining_records)
        return TraceErrc::CountMismatch;
    if (payload_bytes > count * maxRecordBytes)
        return TraceErrc::BadHeader;
    payload.resize(payload_bytes);
    if (std::fread(payload.data(), 1, payload.size(), f) !=
        payload.size()) {
        return TraceErrc::TruncatedChunk;
    }
    if (fnv1a32(payload.data(), payload.size()) != getU32(header + 8))
        return TraceErrc::ChecksumMismatch;
    return TraceErrc::Ok;
}

/**
 * Check that @p f, positioned just past the last record the header
 * promises, is at end of file. Bytes after the last chunk (or v1
 * record) are covered by no count or checksum, so a file that has
 * them is a CountMismatch.
 */
TraceErrc
expectEndOfFile(std::FILE *f)
{
    return std::fgetc(f) == EOF ? TraceErrc::Ok : TraceErrc::CountMismatch;
}

/**
 * Finish @p writer and return @p errc, or the writer's first error if
 * @p errc is Ok. On any error the output at @p path is removed: a
 * failed import or convert must not leave a container that reads as
 * valid. A writer that could not open @p path created nothing, so
 * nothing is removed.
 */
TraceErrc
finishOrRemove(StreamingTraceWriter &writer, const std::string &path,
               TraceErrc errc)
{
    const TraceErrc finished = writer.finish();
    if (errc == TraceErrc::Ok)
        errc = finished;
    if (errc != TraceErrc::Ok && finished != TraceErrc::OpenFailed)
        std::remove(path.c_str());
    return errc;
}

/**
 * Append up to @p refs records to @p writer, pulling them in batches
 * through @p fill (a source's or a reader's fill()); stops early at a
 * short batch or a failed write.
 */
template <typename Fill>
void
copyRecords(Fill fill, std::uint64_t refs, StreamingTraceWriter &writer)
{
    std::vector<MemRef> batch(4096);
    while (refs > 0 && writer.ok()) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(refs, batch.size()));
        const std::size_t got = fill(std::span(batch.data(), want));
        for (std::size_t i = 0; i < got; i++)
            writer.append(batch[i]);
        refs -= got;
        if (got < want)
            break;
    }
}

} // namespace

const char *
traceErrcName(TraceErrc errc)
{
    switch (errc) {
      case TraceErrc::Ok:
        return "ok";
      case TraceErrc::OpenFailed:
        return "open-failed";
      case TraceErrc::TruncatedHeader:
        return "truncated-header";
      case TraceErrc::BadMagic:
        return "bad-magic";
      case TraceErrc::UnsupportedVersion:
        return "unsupported-version";
      case TraceErrc::BadHeader:
        return "bad-header";
      case TraceErrc::TruncatedChunk:
        return "truncated-chunk";
      case TraceErrc::ChecksumMismatch:
        return "checksum-mismatch";
      case TraceErrc::MalformedRecord:
        return "malformed-record";
      case TraceErrc::CountMismatch:
        return "count-mismatch";
      case TraceErrc::WriteFailed:
        return "write-failed";
    }
    return "?";
}

const char *
traceErrcMessage(TraceErrc errc)
{
    switch (errc) {
      case TraceErrc::Ok:
        return "success";
      case TraceErrc::OpenFailed:
        return "cannot open trace file";
      case TraceErrc::TruncatedHeader:
        return "truncated trace header";
      case TraceErrc::BadMagic:
        return "bad trace magic";
      case TraceErrc::UnsupportedVersion:
        return "unsupported trace version";
      case TraceErrc::BadHeader:
        return "trace header fields out of range";
      case TraceErrc::TruncatedChunk:
        return "truncated trace chunk";
      case TraceErrc::ChecksumMismatch:
        return "trace chunk checksum mismatch";
      case TraceErrc::MalformedRecord:
        return "malformed trace record encoding";
      case TraceErrc::CountMismatch:
        return "trace record count mismatch";
      case TraceErrc::WriteFailed:
        return "trace write failure";
    }
    return "?";
}

std::uint64_t
TraceFileInfo::v1EquivalentBytes() const
{
    return v1HeaderBytes + records * v1RecordBytes;
}

double
TraceFileInfo::compressionVsV1() const
{
    return fileBytes ? static_cast<double>(v1EquivalentBytes()) /
            static_cast<double>(fileBytes)
                     : 0.0;
}

// ------------------------------------------------------------ writer

StreamingTraceWriter::StreamingTraceWriter(const std::string &path,
                                           std::uint32_t chunk_records)
    : chunkRecords_(chunk_records)
{
    ltc_assert(chunk_records >= 1 && chunk_records <= maxChunkRecords,
               "chunk capacity out of range: ", chunk_records);
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        err_ = TraceErrc::OpenFailed;
        return;
    }
    unsigned char header[v2HeaderBytes] = {};
    std::memcpy(header, magic, 8);
    putU32(header + 8, 2);
    putU32(header + 12, chunkRecords_);
    putU64(header + 16, 0); // record count patched by finish()
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header))
        fail(TraceErrc::WriteFailed);
    payload_.reserve(chunkRecords_ * 8);
}

StreamingTraceWriter::~StreamingTraceWriter()
{
    finish();
}

void
StreamingTraceWriter::fail(TraceErrc errc)
{
    if (err_ == TraceErrc::Ok)
        err_ = errc;
}

void
StreamingTraceWriter::append(const MemRef &ref)
{
    if (!ok() || finished_)
        return;
    encodeRecord(payload_, ref, prevPc_, prevAddr_);
    chunkCount_++;
    written_++;
    if (chunkCount_ >= chunkRecords_)
        flushChunk();
}

void
StreamingTraceWriter::flushChunk()
{
    if (!ok() || chunkCount_ == 0)
        return;
    unsigned char header[chunkHeaderBytes] = {};
    putU32(header, chunkCount_);
    putU32(header + 4, static_cast<std::uint32_t>(payload_.size()));
    putU32(header + 8, fnv1a32(payload_.data(), payload_.size()));
    if (std::fwrite(header, 1, sizeof(header), file_) !=
            sizeof(header) ||
        std::fwrite(payload_.data(), 1, payload_.size(), file_) !=
            payload_.size()) {
        fail(TraceErrc::WriteFailed);
    }
    payload_.clear();
    chunkCount_ = 0;
    prevPc_ = 0;
    prevAddr_ = 0; // chunks are independently decodable
}

TraceErrc
StreamingTraceWriter::finish()
{
    if (finished_)
        return err_;
    finished_ = true;
    if (file_) {
        flushChunk();
        if (ok()) {
            unsigned char count[8];
            putU64(count, written_);
            if (std::fseek(file_, v2CountOffset, SEEK_SET) != 0 ||
                std::fwrite(count, 1, sizeof(count), file_) !=
                    sizeof(count)) {
                fail(TraceErrc::WriteFailed);
            }
        }
        if (std::fclose(file_) != 0)
            fail(TraceErrc::WriteFailed);
        file_ = nullptr;
    }
    return err_;
}

TraceErrc
writeTraceFileV1(const std::string &path,
                 const std::vector<MemRef> &refs)
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "wb"), closeFile);
    if (!f)
        return TraceErrc::OpenFailed;
    std::vector<unsigned char> bytes(v1HeaderBytes +
                                     refs.size() * v1RecordBytes);
    std::memcpy(bytes.data(), magic, 8);
    putU32(bytes.data() + 8, 1);
    putU32(bytes.data() + 12, static_cast<std::uint32_t>(refs.size()));
    unsigned char *p = bytes.data() + v1HeaderBytes;
    for (const MemRef &ref : refs) {
        putU64(p, ref.pc);
        putU64(p + 8, ref.addr);
        p[16] = ref.op == MemOp::Store ? 1 : 0;
        p[17] = ref.dependsOnPrev ? 1 : 0;
        putU32(p + 18, ref.nonMemGap);
        p += v1RecordBytes;
    }
    return std::fwrite(bytes.data(), 1, bytes.size(), f.get()) ==
            bytes.size()
        ? TraceErrc::Ok
        : TraceErrc::WriteFailed;
}

// ------------------------------------------------------------ reader

StreamingTraceReader::StreamingTraceReader(const std::string &path)
    : file_(std::fopen(path.c_str(), "rb"), closeFile)
{
    if (!file_) {
        err_ = TraceErrc::OpenFailed;
        return;
    }
    std::uint64_t file_bytes = 0;
    err_ = readHeader(file_.get(), version_, records_, chunkRecords_,
                      file_bytes);
    dataStart_ = std::ftell(file_.get());
}

bool
StreamingTraceReader::fail(TraceErrc errc)
{
    if (err_ == TraceErrc::Ok)
        err_ = errc;
    return false;
}

std::size_t
StreamingTraceReader::fill(std::span<MemRef> out)
{
    std::size_t n = 0;
    while (n < out.size() && (bufPos_ < bufLen_ || loadNextChunk())) {
        const std::size_t take =
            std::min(out.size() - n, bufLen_ - bufPos_);
        std::copy_n(buffer_.data() + bufPos_, take, out.data() + n);
        bufPos_ += take;
        n += take;
    }
    return n;
}

bool
StreamingTraceReader::loadNextChunk()
{
    bufPos_ = 0;
    bufLen_ = 0;
    if (!ok())
        return false;
    if (consumed_ >= records_) {
        // End of trace: clean only if the file ends here too.
        const TraceErrc errc = expectEndOfFile(file_.get());
        return errc == TraceErrc::Ok ? false : fail(errc);
    }
    std::uint32_t count = 0;

    if (version_ == 1) {
        count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            records_ - consumed_, chunkRecords_));
        rawBuf_.resize(count * v1RecordBytes);
        if (std::fread(rawBuf_.data(), 1, rawBuf_.size(),
                       file_.get()) != rawBuf_.size()) {
            return fail(TraceErrc::TruncatedChunk);
        }
        if (buffer_.size() < count)
            buffer_.resize(count);
        for (std::size_t i = 0; i < count; i++)
            buffer_[i] =
                decodeV1Record(rawBuf_.data() + i * v1RecordBytes);
    } else {
        const TraceErrc errc = readChunk(
            file_.get(), chunkRecords_, records_ - consumed_, count,
            rawBuf_);
        if (errc != TraceErrc::Ok)
            return fail(errc);
        if (buffer_.size() < count)
            buffer_.resize(count);
        const unsigned char *p = rawBuf_.data();
        const unsigned char *end = p + rawBuf_.size();
        Addr prev_pc = 0, prev_addr = 0;
        for (std::uint32_t i = 0; i < count; i++) {
            if (!(p = decodeRecord(p, end, buffer_[i], prev_pc,
                                   prev_addr))) {
                return fail(TraceErrc::MalformedRecord);
            }
        }
        if (p != end)
            return fail(TraceErrc::MalformedRecord); // trailing bytes
    }

    bufLen_ = count;
    consumed_ += count;
    maxBuffered_ = std::max(maxBuffered_, bufLen_);
    return true;
}

void
StreamingTraceReader::reset()
{
    if (!file_ || version_ == 0)
        return;
    // A sticky mid-stream error (corrupt chunk) stays sticky; only
    // a cleanly readable file can be replayed.
    if (err_ != TraceErrc::Ok)
        return;
    if (std::fseek(file_.get(), dataStart_, SEEK_SET) != 0) {
        fail(TraceErrc::TruncatedChunk);
        return;
    }
    bufLen_ = 0;
    bufPos_ = 0;
    consumed_ = 0;
}

// ------------------------------------------------------------- probe

TraceErrc
probeTraceHeader(const std::string &path, TraceFileInfo &info)
{
    info = TraceFileInfo{};
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "rb"), closeFile);
    if (!f)
        return TraceErrc::OpenFailed;
    const TraceErrc errc = readHeader(f.get(), info.version, info.records,
                                      info.chunkRecords, info.fileBytes);
    if (info.version == 1)
        info.chunkRecords = 0;
    return errc;
}

TraceErrc
probeTraceFile(const std::string &path, TraceFileInfo &info)
{
    info = TraceFileInfo{};
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "rb"), closeFile);
    if (!f)
        return TraceErrc::OpenFailed;

    TraceErrc errc = readHeader(f.get(), info.version, info.records,
                                info.chunkRecords, info.fileBytes);
    if (errc != TraceErrc::Ok)
        return errc;

    if (info.version == 1) {
        info.chunkRecords = 0;
        const std::uint64_t end =
            v1HeaderBytes + info.records * v1RecordBytes;
        if (info.fileBytes < end)
            return TraceErrc::TruncatedChunk;
        if (std::fseek(f.get(), static_cast<long>(end), SEEK_SET) != 0)
            return TraceErrc::TruncatedChunk;
        return expectEndOfFile(f.get());
    }

    std::uint64_t remaining = info.records;
    std::vector<unsigned char> payload;
    while (remaining > 0) {
        std::uint32_t count = 0;
        errc = readChunk(f.get(), info.chunkRecords, remaining, count,
                         payload);
        if (errc != TraceErrc::Ok)
            return errc;
        remaining -= count;
        info.chunks++;
        info.payloadBytes += payload.size();
    }
    errc = expectEndOfFile(f.get());
    if (errc != TraceErrc::Ok)
        return errc;
    info.fileBytes = v2HeaderBytes +
        info.chunks * chunkHeaderBytes + info.payloadBytes;
    return TraceErrc::Ok;
}

// ---------------------------------------------------- capture/convert

TraceErrc
captureToFile(TraceSource &source, const std::string &path,
              std::uint64_t refs, std::uint64_t *out_written,
              std::uint32_t chunk_records)
{
    StreamingTraceWriter writer(path, chunk_records);
    source.reset();
    copyRecords([&](std::span<MemRef> b) { return source.fill(b); }, refs,
                writer);
    if (out_written)
        *out_written = writer.written();
    return finishOrRemove(writer, path, TraceErrc::Ok);
}

TraceErrc
convertTraceFile(const std::string &in_path,
                 const std::string &out_path, std::uint64_t limit,
                 std::uint32_t chunk_records)
{
    StreamingTraceReader reader(in_path);
    if (!reader.ok())
        return reader.error();
    StreamingTraceWriter writer(out_path, chunk_records);
    // Without a limit, pull until the reader comes back short, so its
    // end-of-file check runs.
    copyRecords([&](std::span<MemRef> b) { return reader.fill(b); },
                limit ? limit : ~std::uint64_t{0}, writer);
    return finishOrRemove(writer, out_path, reader.error());
}

// --------------------------------------------------- ChampSim import

namespace
{

/** ChampSim's input_instr: 16 bytes of header + 6 memory slots. */
constexpr std::size_t champsimRecordBytes = 64;
constexpr std::size_t champsimSrcSlots = 4;
constexpr std::size_t champsimDstSlots = 2;

} // namespace

TraceErrc
importChampSimFile(const std::string &in_path,
                   const std::string &out_path, std::uint64_t limit,
                   std::uint64_t *out_written,
                   std::uint32_t chunk_records)
{
    if (out_written)
        *out_written = 0;
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> in(
        std::fopen(in_path.c_str(), "rb"), closeFile);
    if (!in)
        return TraceErrc::OpenFailed;

    StreamingTraceWriter writer(out_path, chunk_records);
    unsigned char rec[champsimRecordBytes];
    std::uint32_t gap = 0;
    while (writer.ok() && (limit == 0 || writer.written() < limit)) {
        const std::size_t got =
            std::fread(rec, 1, sizeof(rec), in.get());
        if (got == 0)
            break;
        if (got != sizeof(rec)) { // trailing partial record
            return finishOrRemove(writer, out_path,
                                  TraceErrc::MalformedRecord);
        }
        const std::uint64_t ip = getU64(rec);
        // destination_memory at offset 16, source_memory at 32.
        bool first = true;
        auto emit = [&](std::uint64_t addr, MemOp op) {
            if (addr == 0 || !writer.ok())
                return;
            if (limit != 0 && writer.written() >= limit)
                return;
            MemRef ref;
            ref.pc = ip;
            ref.addr = addr;
            ref.op = op;
            ref.nonMemGap = first ? gap : 0;
            writer.append(ref);
            if (first) {
                gap = 0;
                first = false;
            }
        };
        for (std::size_t i = 0; i < champsimSrcSlots; i++)
            emit(getU64(rec + 32 + 8 * i), MemOp::Load);
        for (std::size_t i = 0; i < champsimDstSlots; i++)
            emit(getU64(rec + 16 + 8 * i), MemOp::Store);
        if (first)
            gap++; // no memory operands: instruction feeds the gap
    }
    if (out_written)
        *out_written = writer.written();
    return finishOrRemove(writer, out_path, TraceErrc::Ok);
}

} // namespace ltc
