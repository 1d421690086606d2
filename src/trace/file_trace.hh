/**
 * @file
 * Binary trace file readers.
 *
 * Lets users capture a reference stream once (e.g. from their own
 * instrumentation) and replay it through any engine in this library.
 * StreamingTraceWriter and captureToFile() (trace/trace_io.hh) write
 * the chunked, delta-compressed .ltct v2 container; readTraceFile()
 * and FileTrace accept both v2 and the legacy v1 eager format (see
 * trace/trace_io.hh and docs/TRACE_FORMAT.md). These are the
 * fatal-on-error conveniences over trace_io.hh's typed-error
 * container code: both read through StreamingTraceReader::fill(), so
 * FileTrace's memory stays O(chunk) however long the trace is.
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
