/**
 * @file
 * Binary trace file reader/writer.
 *
 * Lets users capture a reference stream once (e.g. from their own
 * instrumentation) and replay it through any engine in this library.
 * writeTraceFile() produces the chunked, delta-compressed .ltct v2
 * container; readTraceFile() and FileTrace accept both v2 and the
 * legacy v1 eager format (see trace/trace_io.hh and
 * docs/TRACE_FORMAT.md). FileTrace replays through the streaming
 * reader, so its memory stays O(chunk) however long the trace is.
 */

#ifndef LTC_TRACE_FILE_TRACE_HH
#define LTC_TRACE_FILE_TRACE_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "util/types.hh"

namespace ltc
{

/** Write @p refs to @p path as a v2 container; fatal on I/O failure. */
void writeTraceFile(const std::string &path,
                    const std::vector<MemRef> &refs);

/**
 * Write @p refs in the legacy v1 eager format (16-byte header plus
 * fixed 22-byte records). Kept for compatibility tests and for
 * producing inputs to the v1 -> v2 conversion path; new traces should
 * use writeTraceFile() / StreamingTraceWriter.
 */
void writeTraceFileV1(const std::string &path,
                      const std::vector<MemRef> &refs);

/**
 * Read an entire trace file (v1 or v2).
 *
 * @param err When non-null, receives the typed result and the
 *        function returns the records decoded before any failure
 *        (malformed input is never fatal). When null, any failure is
 *        a fatal error - the historical convenience behaviour.
 */
std::vector<MemRef> readTraceFile(const std::string &path,
                                  TraceErrc *err = nullptr);

/**
 * TraceSource that replays a trace file through the streaming reader:
 * only one chunk of records is resident at a time. Construction
 * fatals on an unreadable header (a TraceSource has no error
 * channel); use StreamingTraceReader directly for typed errors.
 */
class FileTrace final : public TraceSource
{
  public:
    /** @param name Stats identifier; defaults to "file:<path>". */
    explicit FileTrace(const std::string &path, std::string name = "");

    std::size_t fill(std::span<MemRef> out) override;
    void reset() override { reader_->reset(); }
    std::string name() const override { return name_; }

    /** Total records in the file (from the container header). */
    std::size_t size() const { return reader_->records(); }

    /** The underlying streaming reader (memory-bound assertions). */
    const StreamingTraceReader &reader() const { return *reader_; }

  private:
    std::unique_ptr<StreamingTraceReader> reader_;
    std::string name_;
};

} // namespace ltc

#endif // LTC_TRACE_FILE_TRACE_HH
