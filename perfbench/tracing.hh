/**
 * @file
 * Outside-in tracing adapters for the steady-state benchmark.
 *
 * The simulator has no internal spans, so the traced run wraps the
 * objects the engines call through virtual interfaces: a TraceSource
 * wrapper times fill(), and a Prefetcher wrapper times every virtual
 * call into the predictor. Each call adds its duration to a per-layer
 * accumulator; the benchmark closes one parent span per engine run()
 * chunk and files the accumulated child time inside it, so no span is
 * recorded per reference. The engine's self time is the chunk time
 * minus its children.
 */

#ifndef LTC_PERFBENCH_TRACING_HH
#define LTC_PERFBENCH_TRACING_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pred/prefetcher.hh"
#include "trace/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary epoch (the steady clock's). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Child layers timed inside a chunk span. */
enum Layer : unsigned
{
    Fill,             //!< TraceSource::fill (trace generators)
    Observe,          //!< Prefetcher::observe
    Feedback,         //!< Prefetcher::feedback / feedbackBatch
    PrefetchEviction, //!< Prefetcher::onPrefetchEviction
    MetaDrain,        //!< Prefetcher::drainMetaTraffic
    SetNow,           //!< Prefetcher::setNow (timing engine only)
    NumLayers,
};

/** Metric-name stem of each layer ("observe" -> observe_ns_per_ref). */
inline const char *
layerName(Layer layer)
{
    static constexpr std::array<const char *, NumLayers> names = {
        "fill", "observe", "feedback", "prefetch_eviction",
        "meta_drain", "set_now"};
    return names[layer];
}

/** Time and call count accumulated per layer. */
struct LayerTimes
{
    std::array<std::int64_t, NumLayers> ns{};
    std::array<std::uint64_t, NumLayers> calls{};

    void
    add(Layer layer, std::int64_t dur)
    {
        ns[layer] += dur;
        calls[layer]++;
    }

    void
    operator+=(const LayerTimes &o)
    {
        for (unsigned i = 0; i < NumLayers; i++) {
            ns[i] += o.ns[i];
            calls[i] += o.calls[i];
        }
    }
};

/** One parent span: an engine run() chunk of one cell. */
struct ChunkSpan
{
    std::uint32_t rep = 0;   //!< traced repetition
    std::uint32_t cell = 0;  //!< index into the workload's cells
    std::uint32_t chunk = 0; //!< chunk index within the window
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
    std::uint64_t refs = 0;
    LayerTimes children;
};

/**
 * Cost of the timing itself, measured at run time: @c emptySpanNs is
 * what an empty timed region reads (subtracted from each child span),
 * @c perSpanNs what one costs the enclosing span in total (so
 * perSpanNs - emptySpanNs of each child lands in the parent's self
 * time and is subtracted there).
 */
struct SpanCost
{
    double emptySpanNs = 0.0;
    double perSpanNs = 0.0;
};

/** Calibrate SpanCost (median of several timed loops). */
SpanCost calibrateSpanCost();

/**
 * Cap @p cost's emptySpanNs at the cheapest mean child span observed
 * in @p spans (layers with at least 10k calls in one cell): a tight
 * calibration loop can read dearer than a clock read that overlaps
 * real work, and an empty span cannot cost more than a full one. The
 * total per-span cost is kept, so the rest lands in the parent.
 */
SpanCost capSpanCost(SpanCost cost, const std::vector<ChunkSpan> &spans,
                     std::size_t cells);

/** Times fill() of a wrapped source into LayerTimes[Fill]. */
class TimedSource final : public ltc::TraceSource
{
  public:
    TimedSource(ltc::TraceSource &inner, LayerTimes &acc)
        : inner_(inner), acc_(acc)
    {
    }

    bool next(ltc::MemRef &out) override { return inner_.next(out); }

    std::size_t
    fill(std::span<ltc::MemRef> out) override
    {
        const std::int64_t t0 = nowNs();
        const std::size_t n = inner_.fill(out);
        acc_.add(Fill, nowNs() - t0);
        return n;
    }

    void reset() override { inner_.reset(); }
    std::string name() const override { return inner_.name(); }

  private:
    ltc::TraceSource &inner_;
    LayerTimes &acc_;
};

/**
 * Forwards every virtual Prefetcher call to @c inner and times it.
 * drainRequestsInto() is not virtual — the engine drains this
 * wrapper's own queue — so after each forwarded call the wrapped
 * predictor's pending requests are moved, in order, into this queue.
 */
class TimedPrefetcher final : public ltc::Prefetcher
{
  public:
    TimedPrefetcher(ltc::Prefetcher &inner, LayerTimes &acc)
        : inner_(inner), acc_(acc)
    {
    }

    void
    observe(const ltc::MemRef &ref, const ltc::HierOutcome &out) override
    {
        const std::int64_t t0 = nowNs();
        inner_.observe(ref, out);
        acc_.add(Observe, nowNs() - t0);
        forwardRequests();
    }

    void
    onPrefetchEviction(ltc::Addr victim, ltc::Addr incoming) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onPrefetchEviction(victim, incoming);
        acc_.add(PrefetchEviction, nowNs() - t0);
        forwardRequests();
    }

    void
    feedback(const ltc::PrefetchFeedback &fb) override
    {
        const std::int64_t t0 = nowNs();
        inner_.feedback(fb);
        acc_.add(Feedback, nowNs() - t0);
        forwardRequests();
    }

    void
    feedbackBatch(const ltc::PrefetchFeedback *fbs, std::size_t n) override
    {
        const std::int64_t t0 = nowNs();
        inner_.feedbackBatch(fbs, n);
        acc_.add(Feedback, nowNs() - t0);
        forwardRequests();
    }

    void
    setNow(ltc::Cycle now) override
    {
        const std::int64_t t0 = nowNs();
        inner_.setNow(now);
        acc_.add(SetNow, nowNs() - t0);
        forwardRequests();
    }

    /** Cold path (once per scheduling quantum): forwarded untimed. */
    void
    selectTenant(std::uint32_t tenant) override
    {
        inner_.selectTenant(tenant);
        forwardRequests();
    }

    std::pair<std::uint64_t, std::uint64_t>
    drainMetaTraffic() override
    {
        const std::int64_t t0 = nowNs();
        const auto traffic = inner_.drainMetaTraffic();
        acc_.add(MetaDrain, nowNs() - t0);
        forwardRequests();
        return traffic;
    }

    std::string name() const override { return inner_.name(); }

    void
    exportStats(ltc::StatSet &set) const override
    {
        inner_.exportStats(set);
    }

    void auditInvariants() const override { inner_.auditInvariants(); }

  private:
    void
    forwardRequests()
    {
        if (!inner_.hasRequests())
            return;
        inner_.drainRequestsInto(moved_);
        for (const ltc::PrefetchRequest &req : moved_)
            enqueue(req);
    }

    ltc::Prefetcher &inner_;
    LayerTimes &acc_;
    std::vector<ltc::PrefetchRequest> moved_;
};

} // namespace perfbench

#endif // LTC_PERFBENCH_TRACING_HH
