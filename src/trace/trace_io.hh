/**
 * @file
 * Streaming .ltct trace container: v2 chunked format, v1 compatibility.
 *
 * The v2 container stores a MemRef stream as a sequence of
 * independently decodable chunks. Within a chunk, records are
 * delta-encoded against the previous record (PC and address deltas as
 * zigzag varints, util/varint.hh) with a control byte packing the
 * operation, the dependence flag and the common small non-memory gaps;
 * each chunk carries its record count, payload size and an FNV-1a
 * checksum, so corruption is detected per chunk and both reading and
 * writing need only O(chunk) memory. See docs/TRACE_FORMAT.md for the
 * exact wire layout. One routine reads and verifies a chunk (header,
 * payload, checksum) for both StreamingTraceReader and
 * probeTraceFile(); the reader decodes it into its own buffer and
 * hands records out only through fill().
 *
 * The reader transparently accepts the legacy v1 format (eager
 * fixed-width records) so existing traces keep replaying; the
 * converter and the `ltc-trace` CLI (tools/ltc_trace.cc) upgrade them,
 * and writeTraceFileV1() still writes v1 for compatibility tests.
 * A ChampSim-style importer turns binary instruction traces into
 * MemRef streams so external captures become first-class workloads
 * (trace/workloads.hh discovers .ltct files via LTC_TRACE_DIR).
 *
 * All I/O failures surface as typed TraceErrc values - never
 * fatal() - so callers (tools, tests, the workload registry) can
 * report or recover.
 */

#ifndef LTC_TRACE_TRACE_IO_HH
#define LTC_TRACE_TRACE_IO_HH

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/types.hh"

namespace ltc
{

class TraceSource; // trace/trace.hh

/** Typed result of a trace container operation. */
enum class TraceErrc
{
    Ok = 0,             //!< success
    OpenFailed,         //!< cannot open the file
    TruncatedHeader,    //!< file ends inside the file header
    BadMagic,           //!< not an LTCTRACE container
    UnsupportedVersion, //!< written by a future format version
    BadHeader,          //!< header fields are out of range
    TruncatedChunk,     //!< file ends inside a chunk (header or payload)
    ChecksumMismatch,   //!< chunk payload checksum does not match
    MalformedRecord,    //!< record encoding cannot be decoded
    CountMismatch,      //!< chunk record counts disagree with the header
    WriteFailed,        //!< short write / flush failure
};

/** Short identifier for @p errc (e.g. "checksum-mismatch"). */
const char *traceErrcName(TraceErrc errc);

/** Human-readable message for @p errc (e.g. "bad trace magic"). */
const char *traceErrcMessage(TraceErrc errc);

/** Records per chunk when the writer is not told otherwise. */
constexpr std::uint32_t defaultChunkRecords = 1u << 16;

/** Header summary of an on-disk trace container. */
struct TraceFileInfo
{
    std::uint32_t version = 0;      //!< container version (1 or 2)
    std::uint64_t records = 0;      //!< total MemRef records
    std::uint32_t chunkRecords = 0; //!< chunk capacity (0 for v1)
    std::uint64_t chunks = 0;       //!< chunk count (0 for v1)
    std::uint64_t payloadBytes = 0; //!< encoded record bytes (v2)
    std::uint64_t fileBytes = 0;    //!< total file size

    /** Size of the same stream in the v1 fixed-width encoding. */
    std::uint64_t v1EquivalentBytes() const;
    /** v1EquivalentBytes() / fileBytes (v2's compression win). */
    double compressionVsV1() const;
};

/**
 * Parse and sanity-check only the container header: O(1) I/O, no
 * chunk walk, so it is cheap on arbitrarily long traces. chunks and
 * payloadBytes stay 0 in @p info; fileBytes is filled.
 * @return TraceErrc::Ok and a filled @p info on success.
 */
TraceErrc probeTraceHeader(const std::string &path,
                           TraceFileInfo &info);

/**
 * Walk a container's header and chunk structure, verifying chunk
 * checksums, without decoding records. Reads the whole file; prefer
 * probeTraceHeader() when only the header summary is needed.
 * @return TraceErrc::Ok and a filled @p info on success.
 */
TraceErrc probeTraceFile(const std::string &path, TraceFileInfo &info);

/**
 * Append-only v2 container writer with O(chunk) memory.
 *
 * append() buffers encoded records and flushes a chunk whenever the
 * configured capacity fills; finish() flushes the tail chunk and
 * patches the total record count into the header. Errors are sticky:
 * once a write fails, further appends are ignored and finish()
 * reports the first error.
 */
class StreamingTraceWriter
{
  public:
    /**
     * @param path          Output file (truncated).
     * @param chunk_records Records per chunk (>= 1).
     */
    explicit StreamingTraceWriter(
        const std::string &path,
        std::uint32_t chunk_records = defaultChunkRecords);
    /** Calls finish() if the caller has not. */
    ~StreamingTraceWriter();

    StreamingTraceWriter(const StreamingTraceWriter &) = delete;
    StreamingTraceWriter &
    operator=(const StreamingTraceWriter &) = delete;

    /** False once any operation has failed. */
    bool ok() const { return err_ == TraceErrc::Ok; }
    /** First error encountered (Ok if none). */
    TraceErrc error() const { return err_; }

    /** Encode and buffer one record; flushes full chunks. */
    void append(const MemRef &ref);

    /** Records appended so far. */
    std::uint64_t written() const { return written_; }

    /**
     * Flush the tail chunk and patch the header record count.
     * @return the first error encountered over the writer's life.
     */
    TraceErrc finish();

  private:
    void flushChunk();
    void fail(TraceErrc errc);

    std::FILE *file_ = nullptr;
    std::uint32_t chunkRecords_;
    TraceErrc err_ = TraceErrc::Ok;
    bool finished_ = false;

    std::vector<unsigned char> payload_; //!< encoded chunk so far
    std::uint32_t chunkCount_ = 0;       //!< records in payload_
    std::uint64_t written_ = 0;
    Addr prevPc_ = 0;
    Addr prevAddr_ = 0;
};

/**
 * Streaming container reader for v1 and v2 files.
 *
 * Decodes one chunk at a time (v1: a fixed-size block of records)
 * into its own buffer and hands records out only through fill(), so
 * replay memory is bounded by the file's chunk capacity regardless of
 * trace length. Malformed input surfaces as a typed error: fill()
 * returns short and error() identifies the failure; a clean end of
 * trace (the header's records, then end of file) leaves
 * error() == Ok.
 */
class StreamingTraceReader
{
  public:
    explicit StreamingTraceReader(const std::string &path);

    StreamingTraceReader(const StreamingTraceReader &) = delete;
    StreamingTraceReader &
    operator=(const StreamingTraceReader &) = delete;

    /** False once the header or any chunk failed to parse. */
    bool ok() const { return err_ == TraceErrc::Ok; }
    /** First error encountered (Ok if none). */
    TraceErrc error() const { return err_; }

    /** Container version (1 or 2); 0 if the header failed to parse. */
    std::uint32_t version() const { return version_; }
    /** Total records the header promises. */
    std::uint64_t records() const { return records_; }

    /**
     * Copy up to out.size() records into @p out, decoding the next
     * chunk whenever the buffered one runs out. A short return means
     * end of trace (error() == Ok) or failure.
     */
    std::size_t fill(std::span<MemRef> out);

    /** Rewind to the first record; keeps high-water statistics. */
    void reset();

    /** High-water mark of records buffered in memory at once. */
    std::size_t maxBufferedRecords() const { return maxBuffered_; }
    /** Chunks decoded so far (v2; v1 counts fixed-size blocks). */
    std::uint64_t chunksRead() const { return chunksRead_; }

  private:
    /**
     * Decode the next chunk into buffer_. False on clean end of trace
     * or failure (error() disambiguates).
     */
    bool loadNextChunk();
    bool fail(TraceErrc errc);

    std::unique_ptr<std::FILE, int (*)(std::FILE *)> file_;
    TraceErrc err_ = TraceErrc::Ok;

    std::uint32_t version_ = 0;
    std::uint64_t records_ = 0;
    std::uint32_t chunkRecords_ = 0;
    long dataStart_ = 0;

    std::vector<MemRef> buffer_;   //!< decoded records (first bufLen_)
    std::size_t bufLen_ = 0;       //!< live records in buffer_
    std::size_t bufPos_ = 0;
    std::vector<unsigned char> rawBuf_; //!< encoded-chunk scratch
    std::uint64_t consumed_ = 0; //!< records decoded since reset()
    std::size_t maxBuffered_ = 0;
    std::uint64_t chunksRead_ = 0;
};

/**
 * Write @p refs to @p path in the legacy v1 eager format (16-byte
 * header plus fixed 22-byte records). Kept for compatibility tests
 * and for producing inputs to the v1 -> v2 conversion path; new
 * traces should use StreamingTraceWriter.
 */
TraceErrc writeTraceFileV1(const std::string &path,
                           const std::vector<MemRef> &refs);

/**
 * Capture up to @p refs records of @p source (from its start; the
 * source is reset() first) into a v2 container at @p path. An error
 * after @p path is created removes it.
 * @param out_written Optional: records actually captured (a finite
 *        source may end early).
 */
TraceErrc captureToFile(TraceSource &source, const std::string &path,
                        std::uint64_t refs,
                        std::uint64_t *out_written = nullptr,
                        std::uint32_t chunk_records = defaultChunkRecords);

/**
 * Re-encode the container at @p in_path (v1 or v2) as a v2 container
 * at @p out_path, preserving the record sequence exactly. An error
 * after @p out_path is created (the input's included) removes it.
 * @param limit 0 = all records, otherwise stop after @p limit.
 */
TraceErrc convertTraceFile(const std::string &in_path,
                           const std::string &out_path,
                           std::uint64_t limit = 0,
                           std::uint32_t chunk_records = defaultChunkRecords);

/**
 * Import a ChampSim-style binary instruction trace (uncompressed
 * 64-byte input_instr records, little-endian) into a v2 container.
 *
 * Each instruction contributes one MemRef per non-zero source-memory
 * slot (load) and destination-memory slot (store), with pc = ip;
 * instructions without memory operands accumulate into the next
 * record's nonMemGap. Decompress .xz/.gz captures first. An error
 * after @p out_path is created removes it.
 *
 * @param limit       0 = all, otherwise stop after emitting this many
 *                    memory references.
 * @param out_written Optional: references emitted.
 */
TraceErrc importChampSimFile(
    const std::string &in_path, const std::string &out_path,
    std::uint64_t limit = 0, std::uint64_t *out_written = nullptr,
    std::uint32_t chunk_records = defaultChunkRecords);

} // namespace ltc

#endif // LTC_TRACE_TRACE_IO_HH
