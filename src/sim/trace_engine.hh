/**
 * @file
 * Trace-driven simulation engine.
 *
 * Drives a reference stream through the functional cache hierarchy
 * and a predictor, and classifies every prediction-opportunity cache
 * miss the way Figure 8 of the paper does:
 *
 *  - correct:   a miss eliminated by a prefetch (the demand access
 *               hit a prefetched, never-yet-touched L1D block),
 *  - incorrect: a predicted-but-wrong replacement address (measured
 *               as prefetched blocks evicted unused),
 *  - train:     a miss the predictor made no (confident) prediction
 *               for,
 *  - early:     an extra miss caused by the predictor evicting a
 *               still-live block (reported above 100% in the paper).
 *
 * Prediction opportunity (the denominator) is the L1D miss count of a
 * baseline run without a predictor over the identical stream.
 *
 * The engine supports multiple stat buckets so the multi-programmed
 * experiments (Section 5.5) can attribute events to the application
 * that caused them.
 */

#ifndef LTC_SIM_TRACE_ENGINE_HH
#define LTC_SIM_TRACE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/hierarchy.hh"
#include "mem/bandwidth.hh"
#include "pred/prefetcher.hh"
#include "trace/trace.hh"
#include "util/check.hh"
#include "util/types.hh"

namespace ltc
{

/** Per-bucket coverage and traffic statistics. */
struct CoverageStats
{
    std::uint64_t accesses = 0; //!< memory references processed
    std::uint64_t l1Misses = 0; //!< demand L1D misses
    std::uint64_t l2Misses = 0; //!< demand L2 misses

    std::uint64_t correct = 0; //!< misses eliminated by prefetches
    /** Prefetched blocks evicted without ever being touched. */
    std::uint64_t uselessPrefetches = 0;
    /** Extra misses from predictor-evicted still-live blocks. */
    std::uint64_t early = 0;
    /** Baseline misses over the same stream (set by the harness). */
    std::uint64_t opportunity = 0;

    std::uint64_t instructions = 0; //!< memory refs + nonMemGap

    BandwidthAccount traffic; //!< bytes moved, by traffic class

    /** Misses attributed to wrong predictions (Fig. 8 "incorrect"). */
    std::uint64_t
    incorrect() const
    {
        const std::uint64_t remaining =
            l1Misses > early ? l1Misses - early : 0;
        return std::min(uselessPrefetches, remaining);
    }

    /** Misses with no prediction (Fig. 8 "train"). */
    std::uint64_t
    train() const
    {
        const std::uint64_t remaining =
            l1Misses > early ? l1Misses - early : 0;
        return remaining - incorrect();
    }

    /** Fraction of opportunity eliminated. */
    double
    coverage() const
    {
        return opportunity ? static_cast<double>(correct) /
                static_cast<double>(opportunity)
                           : 0.0;
    }

    /** L1D misses per access. */
    double l1MissRate() const
    {
        return accesses ? static_cast<double>(l1Misses) /
                static_cast<double>(accesses)
                        : 0.0;
    }
};

/** The trace-driven coverage engine (see the file comment). */
class TraceEngine : public CacheListener
{
  public:
    /**
     * @param hier_config Hierarchy configuration.
     * @param pred        Predictor driven by the engine (may be null
     *                    for baseline runs); not owned.
     * @param buckets     Number of stat buckets (>= 1).
     */
    TraceEngine(const HierarchyConfig &hier_config, Prefetcher *pred,
                std::uint32_t buckets = 1);
    /** Detaches the engine from the hierarchy's listener list. */
    ~TraceEngine() override;

    TraceEngine(const TraceEngine &) = delete;            //!< non-copyable
    TraceEngine &operator=(const TraceEngine &) = delete; //!< non-copyable

    /** Route subsequent events to bucket @p bucket. */
    void selectBucket(std::uint32_t bucket);

    /** Process one reference (runtime associativity and policy). */
    void step(const MemRef &ref);

    /**
     * Process up to @p refs references from @p src in the current
     * bucket: a one-tenant, one-quantum runSchedule that leaves the
     * predictor's selected tenant alone.
     *
     * References are pulled through TraceSource::fill() into a
     * reusable buffer and stepped in a tight non-virtual inner loop,
     * so the per-reference cost is the cache model itself — no
     * virtual dispatch, no hash probes, no allocation. Never pulls
     * more than @p refs records (quantum interleavings replay
     * exactly).
     *
     * @return References actually consumed (short on a trace end).
     */
    std::uint64_t run(TraceSource &src, std::uint64_t refs);

    /** One tenant of a multi-programmed schedule (see runSchedule). */
    struct TenantSlot
    {
        /** The tenant's reference stream; not owned. */
        TraceSource *src = nullptr;
        /** Stat bucket the tenant's events are attributed to. */
        std::uint32_t bucket = 0;
    };

    /** One scheduling quantum: run @p tenant for @p refs references. */
    struct ScheduleQuantum
    {
        std::uint32_t tenant = 0;
        std::uint64_t refs = 0;
    };

    /**
     * Process a whole multi-programmed schedule in one call.
     *
     * Semantically identical to the per-quantum loop
     *
     *     for (q : schedule) {
     *         selectBucket(tenants[q.tenant].bucket);
     *         if (predictor()) predictor()->selectTenant(q.tenant);
     *         run(*tenants[q.tenant].src, q.refs);
     *     }
     *
     * (the multiprog equivalence suite pins this), but the
     * associativity dispatch and the baseline cursors are hoisted
     * outside the quantum loop: one dispatch and one cursor commit
     * per schedule instead of one per quantum. All tenants pull
     * through the one RefPuller buffer — each refill is capped at
     * the quantum's remaining references, so the buffer drains within
     * the quantum and stays hot in the host cache across tenant
     * switches (a per-tenant read-ahead slice would go cold between a
     * tenant's quanta at Fig. 11 scale — 1024 tenants, a few hundred
     * references per quantum — and be re-read from memory).
     *
     * @return References actually consumed (short on trace ends).
     */
    std::uint64_t runSchedule(std::span<TenantSlot> tenants,
                              std::span<const ScheduleQuantum> schedule);

    /** Statistics of bucket @p bucket. */
    const CoverageStats &stats(std::uint32_t bucket = 0) const;
    /** Mutable statistics of bucket @p bucket (harness use). */
    CoverageStats &stats(std::uint32_t bucket = 0);

    /** The cache hierarchy (test access). */
    CacheHierarchy &hierarchy() { return hier_; }
    /** The attached predictor (null for baseline runs). */
    Prefetcher *predictor() { return pred_; }

    /** CacheListener: classifies L1D eviction events. */
    void onEviction(Addr victim_addr, Addr incoming_addr,
                    std::uint32_t set, bool by_prefetch,
                    bool victim_was_untouched_prefetch,
                    bool victim_dirty,
                    std::uint8_t victim_meta) override;

    /**
     * Audit both caches and the attached predictor (see
     * Cache::auditInvariants). run() and runSchedule() call this
     * automatically at the end of every call when auditing is enabled
     * — debug builds, or LTC_AUDIT=1 in the environment
     * (util/check.hh).
     */
    void auditInvariants() const;

  private:
    /** The per-call audit hook (no-op unless auditing is on). */
    void
    maybeAudit() const
    {
        if (ltcAuditEnabled())
            auditInvariants();
    }

    void issuePrefetch(const PrefetchRequest &req);
    void drainPredictor();

    /** Queue one feedback event for the next flushFeedback(). */
    void
    bufferFeedback(Addr target, bool useless)
    {
        PrefetchFeedback fb;
        fb.target = target;
        fb.useless = useless;
        fbBuf_.push_back(fb);
    }

    /**
     * Deliver buffered feedback events, in order, as one batch. The
     * engine flushes at exactly two points per reference: before the
     * predictor observes (access-time events — demand evictions,
     * consumed prefetches — must be visible to the confidence reads
     * of observe()) and inside drainPredictor() after the issue loop,
     * before the metadata drain (feedback writes confidence bytes the
     * drain accounts).
     */
    void
    flushFeedback()
    {
        if (fbBuf_.empty())
            return;
        pred_->feedbackBatch(fbBuf_.data(), fbBuf_.size());
        fbBuf_.clear();
    }

    /**
     * The loop-owned CoverageStats counters. They are disjoint from
     * everything the eviction listeners and drainPredictor() write
     * into the bucket (useless prefetches, incorrect, writeback and
     * sequence traffic), so they stay register-resident for a whole
     * quantum and fold into the bucket once (commit) without
     * reordering any observable event.
     */
    struct Counters
    {
        std::uint64_t accesses = 0;
        std::uint64_t instructions = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t correct = 0;
        std::uint64_t early = 0;
        std::uint64_t baseBytes = 0; //!< Traffic::BaseData
    };

    /** Fold @p c into @p s. */
    static void commit(const Counters &c, CoverageStats &s);

    /**
     * The full per-reference event sequence — shared by the scalar
     * step() (runtime associativity, PolicyAuto) and the pull loop
     * (associativity and policy from dispatchHierarchyKernel), so the
     * two cannot diverge. Runs with or without a predictor attached.
     */
    template <std::uint32_t L1Assoc, std::uint32_t L2Assoc,
              typename Policy>
    void stepImpl(const MemRef &ref, Counters &c);

    /**
     * Run @p schedule over @p tenants, the shared back end of run()
     * and runSchedule(). Picks the per-reference body once per call:
     * the trimmed Cache::accessBaseline body when no prefetch state
     * can exist, stepImpl otherwise. @p select_tenants routes each
     * quantum to its tenant's predictor partition (runSchedule only).
     */
    std::uint64_t runTenants(std::span<const TenantSlot> tenants,
                             std::span<const ScheduleQuantum> schedule,
                             bool select_tenants);

    /**
     * The quantum loop: for each quantum, pull the tenant's
     * references through puller_, apply @p body to each, and commit
     * the quantum's Counters to the tenant's bucket.
     *
     * @return References consumed (short on trace ends).
     */
    template <typename Body>
    std::uint64_t runQuanta(std::span<const TenantSlot> tenants,
                            std::span<const ScheduleQuantum> schedule,
                            bool select_tenants, Body &&body);

    HierarchyConfig hierConfig_;
    CacheHierarchy hier_;
    Prefetcher *pred_;
    std::vector<CoverageStats> buckets_;
    std::uint32_t current_ = 0;

    /**
     * Classification state lives in the caches, not here: the
     * fetched/off-chip entries ride on the lines as LineMeta* bits,
     * and early-eviction marks sit in the L1D's region-bitmap mark
     * map (Cache::markEvicted) — see cache/cache.hh. The engine only
     * keeps reusable buffers.
     */
    RefPuller puller_; //!< pull buffer shared by every tenant
    std::vector<PrefetchRequest> reqBuf_; //!< predictor drain buffer
    std::vector<PrefetchFeedback> fbBuf_; //!< feedback batch buffer
    /** Listener adapter for L2 (classifies GHB-style L2 prefetches). */
    class L2Listener;
    std::unique_ptr<L2Listener> l2Listener_;
};

/**
 * Convenience harness: run @p workload for @p refs against
 * @p hier_config with @p pred, after measuring opportunity with a
 * baseline (predictor-less) pass over the identical stream.
 */
CoverageStats runWithOpportunity(const HierarchyConfig &hier_config,
                                 Prefetcher *pred, TraceSource &workload,
                                 std::uint64_t refs);

} // namespace ltc

#endif // LTC_SIM_TRACE_ENGINE_HH
