#include "sim/trace_engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ltc
{

TraceEngine::TraceEngine(const HierarchyConfig &hier_config,
                         Prefetcher *pred, std::uint32_t buckets)
    : hierConfig_(hier_config), hier_(hier_config), pred_(pred),
      buckets_(buckets == 0 ? 1 : buckets)
{
}

void
TraceEngine::selectBucket(std::uint32_t bucket)
{
    ltc_assert(bucket < buckets_.size(), "bucket out of range: ", bucket);
    current_ = bucket;
}

CoverageStats &
TraceEngine::stats(std::uint32_t bucket)
{
    ltc_assert(bucket < buckets_.size(), "bucket out of range: ", bucket);
    return buckets_[bucket];
}

void
TraceEngine::l1Victim(const Victim &v, bool prefetch_fill)
{
    CoverageStats &s = buckets_[current_];
    // The hierarchy wrote a dirty victim back into its L2 copy (free,
    // on chip) when one was left; otherwise it goes off chip. Dirty
    // victims are never untouched prefetches (prefetches fill clean).
    if (v.writeback && !v.absorbed)
        s.traffic.add(Traffic::Writeback, hierConfig_.l1d.lineBytes);

    if (v.untouchedPrefetch) {
        // A prefetched block died unused: wrong replacement address.
        s.uselessPrefetches++;
        if (fetchedOffChip(v.meta))
            s.traffic.add(Traffic::IncorrectPrefetch,
                          hierConfig_.l1d.lineBytes);
        if (pred_)
            pred_->feedback({v.addr, true});
    } else if (prefetch_fill && v.evicted) {
        // A live block evicted by a prefetch fill: if it misses again
        // later, that miss is a premature ("early") eviction.
        hier_.l1d().markEvicted(v.addr);
    }
}

void
TraceEngine::l2Victim(const Victim &v)
{
    CoverageStats &s = buckets_[current_];
    // A dirty L2 victim crosses the chip boundary on its way out. It
    // can also be a useless prefetch: an L1 writeback can land on a
    // still-untouched prefetched L2 line.
    if (v.writeback)
        s.traffic.add(Traffic::Writeback, hierConfig_.l2.lineBytes);
    if (!v.untouchedPrefetch)
        return;
    // A block prefetched into L2 (GHB/stride style) died unused. Its
    // classification entry rides on the victim line unless a later
    // L1 prefetch moved it to the L1 copy; at most one entry exists
    // per block. The timing engine tracks usefulness through L1
    // victims only, so this rule lives here, not in the hierarchy.
    std::uint8_t meta = v.meta;
    if (!(meta & LineMetaFetched))
        meta = hier_.l1d().takeMeta(v.addr);
    if (fetchedOffChip(meta))
        s.traffic.add(Traffic::IncorrectPrefetch, hierConfig_.l2.lineBytes);
    s.uselessPrefetches++;
    if (pred_)
        pred_->feedback({v.addr, true});
}

void
TraceEngine::issuePrefetch(const PrefetchRequest &req)
{
    const Addr block = hier_.l1d().blockAlign(req.target);

    // The prediction also feeds dead-block-aware replacement
    // (CacheHierarchy::markDead). In this engine mark and fill are
    // atomic — predictions drain every reference and LT-cords'
    // (victim, replacement) pairs are same-set by construction — so
    // the directed fill consumes the L1 mark immediately and L1
    // DeadBlock degenerates to LRU; the timing engine's
    // enqueue->issue delay is where the L1 marks earn their keep. The
    // L2 mark persists in both engines: L2 recency (only updated on
    // L1 misses) tracks death order poorly enough that the mark
    // genuinely reorders L2 evictions.
    hier_.markDead(req.predictedVictim);

    if (req.intoL1) {
        const PrefetchOutcome out =
            hier_.prefetch(req.target, req.predictedVictim);
        if (out.alreadyInL1) {
            if (pred_)
                pred_->feedback({req.target, true});
            return;
        }
        l2Victim(out.l2Victim);
        l1Victim(out.l1Victim, /*prefetch_fill=*/true);
        // The prefetch restored the block in time.
        hier_.l1d().clearEvictedMark(block);
        if (out.l1Victim.evicted && pred_)
            pred_->onPrefetchEviction(out.l1Victim.addr, req.target);
    } else {
        // Conventional prefetch: install into L2 only.
        l2Victim(hier_.prefetchL2(block).l2Victim);
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
    l1Victim(out.l1Victim, /*prefetch_fill=*/false);
    l2Victim(out.l2Victim);
    const std::uint32_t line_bytes = hierConfig_.l1d.lineBytes;

    if (out.l1Hit()) {
        if (out.l1HitOnPrefetch) {
            // A miss eliminated by the predictor. Charge the block
            // transfer the demand fetch would have performed anyway.
            c.correct++;
            if (fetchedOffChip(out.l1Meta))
                c.baseBytes += line_bytes;
            if (pred_)
                pred_->feedback({ref.addr, false});
        }
    } else {
        c.l1Misses++;
        if (hier_.l1d().clearEvictedMark(ref.addr))
            c.early++;
        if (out.level == HitLevel::Memory) {
            c.l2Misses++;
            c.baseBytes += line_bytes;
        } else if (out.l2HitOnPrefetch) {
            // L2 prefetch (GHB-style) turned an off-chip miss into an
            // L2 hit: account its off-chip transfer as base data.
            if (fetchedOffChip(out.l2Meta))
                c.baseBytes += line_bytes;
            if (pred_)
                pred_->feedback({ref.addr, false});
        }
    }

    if (pred_) {
        // The access-time feedback above precedes observe(), whose
        // confidence reads must see it.
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
            // for the whole schedule, so the inner loop is loads,
            // compares and register increments only.
            Cache &l1 = hier_.l1d();
            Cache &l2 = hier_.l2();
            Cache::BaselineCursor c1 = l1.baselineCursor();
            Cache::BaselineCursor c2 = l2.baselineCursor();
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
