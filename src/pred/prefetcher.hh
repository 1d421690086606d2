/**
 * @file
 * Common prefetcher interface.
 *
 * Engines drive predictors with one observe() call per committed
 * memory reference (after the functional cache access) and then drain
 * the prefetch requests the predictor generated. Two request flavours
 * exist:
 *
 *  - last-touch prefetches (DBCP, LT-cords) that go directly into
 *    L1D replacing a predicted dead block, and
 *  - conventional prefetches (GHB, stride) that install into L2 only,
 *    avoiding L1 pollution at the cost of leaving L2 latency exposed.
 */

#ifndef LTC_PRED_PREFETCHER_HH
#define LTC_PRED_PREFETCHER_HH

#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace ltc
{

/** One prefetch the predictor wants issued. */
struct PrefetchRequest
{
    /** Block (any address within it) to fetch. */
    Addr target = 0;
    /** Predicted dead block to replace in L1D (invalidAddr = none). */
    Addr predictedVictim = invalidAddr;
    /** Fill L1D directly (last-touch style) or stop at L2. */
    bool intoL1 = false;
};

/** Feedback given to the predictor about an issued prefetch. */
struct PrefetchFeedback
{
    Addr target = 0;
    /**
     * True when the prefetch was wasted: the block was already
     * resident, or was evicted again without ever being referenced.
     * False when a demand access consumed the prefetched block.
     */
    bool useless = false;
};

class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe one committed memory reference and the outcome of its
     * cache access. May enqueue prefetch requests.
     */
    virtual void observe(const MemRef &ref, const HierOutcome &out) = 0;

    /**
     * A prefetch fill evicted a valid L1D block. Last-touch
     * predictors must know this to keep their history windows aligned
     * between recording (evictions at demand fills) and prediction
     * (evictions at prefetch fills).
     */
    virtual void
    onPrefetchEviction(Addr victim_addr, Addr incoming_addr)
    {
        (void)victim_addr;
        (void)incoming_addr;
    }

    /**
     * Feedback for an issued request (useless prefetch etc.), one
     * call per event, delivered when the event happens. Per
     * reference, the engines make the calls in this order:
     *
     *     feedback* [setNow] observe (onPrefetchEviction | feedback)*
     *     drainMetaTraffic
     *
     * Access-time events (a demand hit consuming a prefetched block,
     * a demand fill evicting an untouched one) arrive before
     * observe(), whose confidence reads must see them. Issue-time
     * events (a prefetch finding its block already in L1D, a prefetch
     * fill evicting an untouched block) arrive while the reference's
     * requests issue, before drainMetaTraffic(), which accounts the
     * confidence bytes they write. setNow() is the timing engine's.
     */
    virtual void feedback(const PrefetchFeedback &fb) { (void)fb; }

    /**
     * Feedback for @p n events in order; the default loops over
     * feedback(), which overrides must match event-for-event. No
     * engine calls this: they deliver each event through feedback().
     */
    virtual void
    feedbackBatch(const PrefetchFeedback *fbs, std::size_t n)
    {
        for (std::size_t i = 0; i < n; i++)
            feedback(fbs[i]);
    }

    /**
     * Advance the predictor's notion of time (cycle engine). Trace
     * engines never call this; predictors that model internal
     * latencies (LT-cords signature streaming) use it.
     */
    virtual void setNow(Cycle now) { (void)now; }

    /**
     * Route subsequent observations to @p tenant (multi-programmed
     * runs, Section 5.5). Predictors with tenant-aware structures
     * (LT-cords' partitioned signature cache and per-tenant sequence
     * storage attribution) override this; the default ignores the
     * call, so every predictor composes with the multi-tenant engine
     * loop. Cold path: called once per scheduling quantum.
     */
    virtual void selectTenant(std::uint32_t tenant) { (void)tenant; }

    /**
     * Move the pending requests into @p out, replacing its contents
     * (the queue is left empty). The engines call this once per
     * reference with a reusable buffer: the two vectors swap storage,
     * so the steady state allocates nothing.
     */
    void
    drainRequestsInto(std::vector<PrefetchRequest> &out)
    {
        out.clear();
        std::swap(out, requests_);
    }

    bool hasRequests() const { return !requests_.empty(); }

    virtual std::string name() const = 0;

    /** Export predictor statistics. */
    virtual void exportStats(StatSet &set) const { (void)set; }

    /**
     * LTC_CHECK the predictor's internal structural invariants
     * (LT-cords audits its sequence storage and streaming state).
     * Cold path: engines call this at batch boundaries when auditing
     * is enabled (util/check.hh). Default: nothing to audit.
     */
    virtual void auditInvariants() const {}

    /**
     * Off-chip traffic this predictor generated for its own metadata
     * since the last call (bytes): {writes, reads}. LT-cords overrides
     * this to report sequence-creation and sequence-fetch traffic.
     */
    virtual std::pair<std::uint64_t, std::uint64_t>
    drainMetaTraffic()
    {
        return {0, 0};
    }

  protected:
    void
    enqueue(const PrefetchRequest &req)
    {
        requests_.push_back(req);
    }

  private:
    std::vector<PrefetchRequest> requests_;
};

/** No-op predictor for baseline runs. */
class NullPrefetcher : public Prefetcher
{
  public:
    void observe(const MemRef &, const HierOutcome &) override {}
    std::string name() const override { return "none"; }
};

} // namespace ltc

#endif // LTC_PRED_PREFETCHER_HH
