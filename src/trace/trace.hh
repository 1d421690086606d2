/**
 * @file
 * Memory-reference trace abstraction.
 *
 * Every simulator engine in this repository consumes a TraceSource: a
 * pull-based stream of MemRef records. Synthetic workload generators
 * (trace/workloads.hh) and file readers (trace/file_trace.hh)
 * implement this interface, so the same engine runs the paper's
 * trace-driven studies and the cycle-accurate timing experiments.
 */

#ifndef LTC_TRACE_TRACE_HH
#define LTC_TRACE_TRACE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/types.hh"

namespace ltc
{

/**
 * A stream of memory references.
 *
 * Sources may be finite (a fill() eventually comes back short) or
 * infinite (workload generators loop forever; engines bound them by
 * reference count). reset() restarts the stream from its beginning
 * with identical content — determinism is a hard requirement for
 * reproducible experiments.
 *
 * fill() is the one place a source defines its stream, and next() is
 * fill() of one record, so a source's batched and one-at-a-time
 * streams cannot differ. Engines and analyses pull batches through
 * RefPuller.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce up to out.size() references into @p out.
     *
     * Returns the number of records written; a short return means end
     * of trace. Concrete sources generate the whole batch in one call,
     * so the per-record virtual hop is paid once per batch — the
     * simulation engines' hot path.
     */
    virtual std::size_t fill(std::span<MemRef> out) = 0;

    /**
     * Produce the next reference: fill() of one record. Sources under
     * src/ do not override it (tools/ltc_lint.py checks); it stays
     * virtual so instrumenting wrappers can forward it.
     * @param out Filled in on success.
     * @retval true a record was produced.
     * @retval false end of trace.
     */
    virtual bool next(MemRef &out) { return fill({&out, 1}) == 1; }

    /** Restart the stream; the replayed content must be identical. */
    virtual void reset() = 0;

    /** Short identifier used in stats and tables. */
    virtual std::string name() const = 0;
};

// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

/**
 * The batched pull loop every reference consumer shares: the engines'
 * run()/runSchedule() quanta and the analyses' run().
 *
 * The buffer is allocated once, with the puller, so the loop inlines
 * into its caller's kernel with no per-call frame or zero-fill.
 */
class RefPuller
{
  public:
    /**
     * Records per fill() request: large enough to amortize the virtual
     * hop to nothing, small enough that the buffer (256 x 32 B = 8 KB)
     * stays L1-resident — the generator writes the batch and the
     * consumer immediately re-reads it.
     */
    static constexpr std::size_t batchRefs = 256;

    /**
     * Apply @p body to each of up to @p refs records of @p src, in
     * stream order. Never requests more than @p refs records in total
     * (a multi-programmed quantum must not consume records its
     * tenant's next quantum replays); a short fill() is the end of
     * the trace and ends the loop.
     *
     * @return Records delivered (short on a trace end).
     */
    template <typename Body>
    std::uint64_t
    forEach(TraceSource &src, std::uint64_t refs, Body &&body)
    {
        MemRef *const buf = buf_.data();
        std::uint64_t done = 0;
        while (done < refs) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(refs - done, batchRefs));
            const std::size_t got = src.fill({buf, want});
            for (std::size_t i = 0; i < got; i++)
                body(buf[i]);
            done += got;
            if (got < want)
                break;
        }
        return done;
    }

  private:
    std::vector<MemRef> buf_ = std::vector<MemRef>(batchRefs);
};

// LTC_HOT_END

/** Adds a constant byte offset to every address (multi-programming). */
class ShiftSource final : public TraceSource
{
  public:
    ShiftSource(std::unique_ptr<TraceSource> inner, Addr offset);

    std::size_t fill(std::span<MemRef> out) override;
    void reset() override { inner_->reset(); }
    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<TraceSource> inner_;
    Addr offset_;
};

} // namespace ltc

#endif // LTC_TRACE_TRACE_HH
