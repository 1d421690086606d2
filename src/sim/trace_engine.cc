#include "sim/trace_engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ltc
{

/**
 * L2 eviction listener: when a block prefetched into L2 (GHB/stride
 * style) dies unused, classify its off-chip transfer as incorrect-
 * prediction traffic and tell the predictor.
 */
class TraceEngine::L2Listener : public CacheListener
{
  public:
    explicit L2Listener(TraceEngine &owner) : owner_(owner) {}

    void
    onEviction(Addr victim_addr, Addr incoming_addr, std::uint32_t set,
               bool by_prefetch, bool victim_was_untouched_prefetch,
               bool victim_dirty, std::uint8_t victim_meta) override
    {
        (void)incoming_addr;
        (void)set;
        (void)by_prefetch;
        if (victim_dirty && owner_.hierConfig_.modelWritebacks) {
            // A dirty L2 victim crosses the chip boundary on its way
            // out. No early return: an L1 writeback (setDirty) can
            // land on a still-untouched prefetched L2 line, and such
            // a victim is both a writeback and a useless prefetch.
            owner_.buckets_[owner_.current_].traffic.add(
                Traffic::Writeback, owner_.hierConfig_.l2.lineBytes);
        }
        if (!victim_was_untouched_prefetch)
            return;
        CoverageStats &s = owner_.buckets_[owner_.current_];
        // The classification entry rides on the victim line; if a
        // later prefetch moved the block's entry to L1D, consume it
        // there (at most one entry exists per block).
        std::uint8_t meta = victim_meta;
        if (!(meta & LineMetaFetched))
            meta = owner_.hier_.l1d().takeMeta(victim_addr);
        if (meta & LineMetaFetched) {
            if (meta & LineMetaOffChip) {
                s.traffic.add(Traffic::IncorrectPrefetch,
                              owner_.hierConfig_.l2.lineBytes);
            }
        }
        s.uselessPrefetches++;
        if (owner_.pred_)
            owner_.bufferFeedback(victim_addr, true);
    }

  private:
    TraceEngine &owner_;
};

TraceEngine::TraceEngine(const HierarchyConfig &hier_config,
                         Prefetcher *pred, std::uint32_t buckets)
    : hierConfig_(hier_config), hier_(hier_config), pred_(pred),
      buckets_(buckets == 0 ? 1 : buckets),
      l2Listener_(std::make_unique<L2Listener>(*this))
{
    hier_.l1d().setListener(this);
    hier_.l2().setListener(l2Listener_.get());
}

TraceEngine::~TraceEngine()
{
    hier_.l1d().setListener(nullptr);
    hier_.l2().setListener(nullptr);
}

void
TraceEngine::selectBucket(std::uint32_t bucket)
{
    ltc_assert(bucket < buckets_.size(), "bucket out of range: ", bucket);
    current_ = bucket;
}

const CoverageStats &
TraceEngine::stats(std::uint32_t bucket) const
{
    ltc_assert(bucket < buckets_.size(), "bucket out of range: ", bucket);
    return buckets_[bucket];
}

CoverageStats &
TraceEngine::stats(std::uint32_t bucket)
{
    ltc_assert(bucket < buckets_.size(), "bucket out of range: ", bucket);
    return buckets_[bucket];
}

void
TraceEngine::onEviction(Addr victim_addr, Addr incoming_addr,
                        std::uint32_t set, bool by_prefetch,
                        bool victim_was_untouched_prefetch,
                        bool victim_dirty, std::uint8_t victim_meta)
{
    (void)incoming_addr;
    (void)set;
    CoverageStats &s = buckets_[current_];

    if (victim_dirty && hierConfig_.modelWritebacks) {
        // The dirty L1 victim writes back into L2 (on-chip, free);
        // only when L2 no longer holds the block does the writeback
        // go off chip. Dirty victims are never untouched prefetches
        // (prefetches fill clean), so the classification below is
        // unaffected.
        if (!hier_.l2().setDirty(victim_addr)) {
            s.traffic.add(Traffic::Writeback,
                          hierConfig_.l1d.lineBytes);
        }
    }

    if (victim_was_untouched_prefetch) {
        // A prefetched block died unused: wrong replacement address.
        s.uselessPrefetches++;
        std::uint8_t meta = victim_meta;
        if (!(meta & LineMetaFetched))
            meta = hier_.l2().takeMeta(victim_addr);
        if (meta & LineMetaFetched) {
            if (meta & LineMetaOffChip) {
                s.traffic.add(Traffic::IncorrectPrefetch,
                              hierConfig_.l1d.lineBytes);
            }
        }
        if (pred_)
            bufferFeedback(victim_addr, true);
        return;
    }

    if (by_prefetch) {
        // A live block evicted by a prefetch fill: if it misses again
        // later, that miss is a premature ("early") eviction.
        hier_.l1d().markEvicted(victim_addr);
    }
}

void
TraceEngine::issuePrefetch(const PrefetchRequest &req)
{
    CoverageStats &s = buckets_[current_];
    const Addr block = hier_.l1d().blockAlign(req.target);

    // Under the dead-block-aware policy the prediction also feeds
    // replacement: mark the predicted victim dead so LRU prefers it.
    // In this engine mark and fill are atomic — predictions drain every
    // reference and LT-cords' (victim, replacement) pairs are
    // same-set by construction — so the directed fill consumes the
    // L1 mark immediately and L1 DeadBlock degenerates to LRU; the
    // timing engine's enqueue->issue delay is where the L1 marks
    // earn their keep (see TimingSim::issuePrefetch). The L2 mark
    // below persists in both engines: a last touch is program-wide,
    // so the victim's L2 copy is just as dead, and L2 recency (only
    // updated on L1 misses) tracks death order poorly enough that
    // the mark genuinely reorders L2 evictions.
    if (req.predictedVictim != invalidAddr) {
        if (hierConfig_.l1d.policy == ReplPolicy::DeadBlock)
            hier_.l1d().markDead(req.predictedVictim);
        if (hierConfig_.l2.policy == ReplPolicy::DeadBlock)
            hier_.l2().markDead(req.predictedVictim);
    }

    if (req.intoL1) {
        const PrefetchOutcome out =
            hier_.prefetch(req.target, req.predictedVictim);
        if (out.alreadyInL1) {
            if (pred_)
                bufferFeedback(req.target, true);
            return;
        }
        // At most one classification entry per block: retire any
        // stale L2-side entry before writing the L1 line's.
        hier_.l2().takeMeta(block);
        hier_.l1d().setMeta(block,
                            LineMetaFetched |
                                (out.l2Hit ? 0 : LineMetaOffChip));
        // The prefetch restored the block in time.
        hier_.l1d().clearEvictedMark(block);
        if (out.l1Evicted && pred_)
            pred_->onPrefetchEviction(out.l1VictimAddr, req.target);
    } else {
        // Conventional prefetch: install into L2 only.
        if (hier_.l2().probe(block))
            return;
        hier_.l2().fill(block);
        hier_.l1d().takeMeta(block);
        hier_.l2().setMeta(block, LineMetaFetched | LineMetaOffChip);
        s.traffic.add(Traffic::BaseData, 0); // classified on outcome
    }
}

void
TraceEngine::drainPredictor()
{
    if (!pred_)
        return;
    pred_->drainRequestsInto(reqBuf_);
    for (const PrefetchRequest &req : reqBuf_)
        issuePrefetch(req);
    // Issue-time feedback (filtered prefetches, fills evicting
    // untouched prefetches) writes confidence bytes the metadata
    // drain below accounts.
    flushFeedback();
    const auto [write_bytes, read_bytes] = pred_->drainMetaTraffic();
    CoverageStats &s = buckets_[current_];
    s.traffic.add(Traffic::SequenceCreate, write_bytes);
    s.traffic.add(Traffic::SequenceFetch, read_bytes);
}

// ------------------------------------------- per-reference hot path
//
// One per-reference body (stepImpl) and one pull loop (runQuanta).
// step() runs the body once; run() and runSchedule() run it — or, for
// predictor-less runs, the trimmed baseline body — through the loop,
// with associativity dispatch and baseline cursors outside the
// quantum loop and each quantum's Counters folded into its tenant's
// bucket exactly once.
//
// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

void
TraceEngine::commit(const Counters &c, CoverageStats &s)
{
    s.accesses += c.accesses;
    s.instructions += c.instructions;
    s.l1Misses += c.l1Misses;
    s.l2Misses += c.l2Misses;
    s.correct += c.correct;
    s.early += c.early;
    s.traffic.add(Traffic::BaseData, c.baseBytes);
}

template <std::uint32_t L1Assoc, std::uint32_t L2Assoc, typename Policy>
void
TraceEngine::stepImpl(const MemRef &ref, Counters &c)
{
    c.accesses++;
    c.instructions += 1 + ref.nonMemGap;

    const HierOutcome out =
        hier_.access<L1Assoc, L2Assoc, Policy>(ref.addr, ref.op);
    const Addr block = hier_.l1d().blockAlign(ref.addr);
    const std::uint32_t line_bytes = hierConfig_.l1d.lineBytes;

    if (out.l1Hit()) {
        if (out.l1HitOnPrefetch) {
            // A miss eliminated by the predictor.
            c.correct++;
            // Charge the block transfer the demand fetch would have
            // performed anyway. The access consumed the L1 line's
            // classification entry; fall back to an L2-side entry.
            std::uint8_t meta = out.l1Meta;
            if (!(meta & LineMetaFetched))
                meta = hier_.l2().takeMeta(block);
            if ((meta & LineMetaFetched) && (meta & LineMetaOffChip))
                c.baseBytes += line_bytes;
            if (pred_)
                bufferFeedback(ref.addr, false);
        }
    } else {
        c.l1Misses++;
        if (hier_.l1d().clearEvictedMark(block))
            c.early++;
        if (out.level == HitLevel::Memory) {
            c.l2Misses++;
            c.baseBytes += line_bytes;
        } else if (out.l2HitOnPrefetch) {
            // L2 prefetch (GHB-style) turned an off-chip miss into an
            // L2 hit: account its off-chip transfer as base data.
            if ((out.l2Meta & LineMetaFetched) &&
                (out.l2Meta & LineMetaOffChip)) {
                c.baseBytes += line_bytes;
            }
            if (pred_)
                bufferFeedback(ref.addr, false);
        }
    }

    if (pred_) {
        // Access-time feedback must be visible before the predictor
        // reads confidences in observe().
        flushFeedback();
        pred_->observe(ref, out);
        drainPredictor();
    }
}

void
TraceEngine::step(const MemRef &ref)
{
    Counters c;
    stepImpl<0, 0, PolicyAuto>(ref, c);
    commit(c, buckets_[current_]);
}

template <typename Body>
std::uint64_t
TraceEngine::runQuanta(std::span<const TenantSlot> tenants,
                       std::span<const ScheduleQuantum> schedule,
                       bool select_tenants, Body &&body)
{
    std::uint64_t done = 0;
    for (const ScheduleQuantum &q : schedule) {
        const TenantSlot &t = tenants[q.tenant];
        current_ = t.bucket;
        if (select_tenants && pred_)
            pred_->selectTenant(q.tenant);
        Counters c;
        done += puller_.forEach(*t.src, q.refs, [&](const MemRef &ref) {
            body(ref, c);
        });
        commit(c, buckets_[t.bucket]);
    }
    return done;
}

std::uint64_t
TraceEngine::runTenants(std::span<const TenantSlot> tenants,
                        std::span<const ScheduleQuantum> schedule,
                        bool select_tenants)
{
    const bool baseline = pred_ == nullptr && hier_.baselineExact();

    const std::uint64_t done = dispatchHierarchyKernel(
        hier_.l1d().config(), hier_.l2().config(),
        [&](auto a1, auto a2, auto pol) {
            constexpr std::uint32_t L1Assoc = decltype(a1)::value;
            constexpr std::uint32_t L2Assoc = decltype(a2)::value;
            using Policy = decltype(pol);
            if (!baseline) {
                return runQuanta(tenants, schedule, select_tenants,
                                 [this](const MemRef &ref, Counters &c) {
                                     stepImpl<L1Assoc, L2Assoc, Policy>(
                                         ref, c);
                                 });
            }
            // Predictor-less, stepImpl degenerates to counting hits
            // and misses: the caches' counters live in BaselineCursors
            // for the whole schedule and the hierarchy's are
            // reconciled from them afterwards, so the inner loop is
            // loads, compares and register increments only.
            Cache &l1 = hier_.l1d();
            Cache &l2 = hier_.l2();
            const Cache::BaselineCursor start1 = l1.baselineCursor();
            const Cache::BaselineCursor start2 = l2.baselineCursor();
            Cache::BaselineCursor c1 = start1;
            Cache::BaselineCursor c2 = start2;
            const std::uint32_t line_bytes = hierConfig_.l1d.lineBytes;
            const std::uint64_t consumed = runQuanta(
                tenants, schedule, select_tenants,
                [&](const MemRef &ref, Counters &c) {
                    c.accesses++;
                    c.instructions += 1 + ref.nonMemGap;
                    if (!l1.accessBaseline<L1Assoc, Policy>(
                            ref.addr, ref.op, c1)) {
                        c.l1Misses++;
                        if (!l2.accessBaseline<L2Assoc, Policy>(
                                ref.addr, ref.op, c2)) {
                            c.l2Misses++;
                            c.baseBytes += line_bytes;
                        }
                    }
                });
            l1.commitBaseline(c1);
            l2.commitBaseline(c2);
            hier_.noteBaselineBatch(c1.accesses - start1.accesses,
                                    c1.misses - start1.misses,
                                    c2.misses - start2.misses);
            return consumed;
        });
    maybeAudit();
    return done;
}

// LTC_HOT_END

std::uint64_t
TraceEngine::runSchedule(std::span<TenantSlot> tenants,
                         std::span<const ScheduleQuantum> schedule)
{
    ltc_assert(!tenants.empty(), "schedule needs at least one tenant");
    for (const TenantSlot &slot : tenants) {
        ltc_assert(slot.src != nullptr, "tenant without a trace source");
        ltc_assert(slot.bucket < buckets_.size(),
                   "tenant bucket out of range: ", slot.bucket);
    }
    for (const ScheduleQuantum &q : schedule)
        ltc_assert(q.tenant < tenants.size(), "quantum names tenant ",
                   q.tenant, " of ", tenants.size());

    return runTenants(tenants, schedule, /*select_tenants=*/true);
}

std::uint64_t
TraceEngine::run(TraceSource &src, std::uint64_t refs)
{
    const TenantSlot self{&src, current_};
    const ScheduleQuantum whole{0, refs};
    return runTenants({&self, 1}, {&whole, 1}, /*select_tenants=*/false);
}

void
TraceEngine::auditInvariants() const
{
    hier_.l1d().auditInvariants();
    hier_.l2().auditInvariants();
    if (pred_)
        pred_->auditInvariants();
}

CoverageStats
runWithOpportunity(const HierarchyConfig &hier_config, Prefetcher *pred,
                   TraceSource &workload, std::uint64_t refs)
{
    // Baseline pass: measures prediction opportunity.
    workload.reset();
    std::uint64_t opportunity = 0;
    {
        TraceEngine base(hier_config, nullptr);
        base.run(workload, refs);
        opportunity = base.stats().l1Misses;
    }

    // Predictor pass over the identical stream.
    workload.reset();
    TraceEngine engine(hier_config, pred);
    engine.run(workload, refs);
    CoverageStats stats = engine.stats();
    stats.opportunity = opportunity;
    return stats;
}

} // namespace ltc
