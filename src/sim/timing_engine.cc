#include "sim/timing_engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ltc
{

/**
 * L2 eviction listener: a dirty L2 victim leaves the chip. Charged as
 * Writeback traffic and as occupancy on the shared memory data
 * channel at the cycle of the eviction-causing event (wbNow_), so
 * writebacks contend with demand fills the way they would in
 * hardware. Dirtiness and untouched-prefetch state can coexist at L2
 * (an L1 writeback can land on a still-untouched prefetched L2 copy),
 * but the untouched-prefetch classification of L2 victims is the
 * trace engine's concern — the timing engine tracks prefetch
 * usefulness through L1 evictions and the in-flight table only.
 */
class TimingSim::L2WritebackListener : public CacheListener
{
  public:
    explicit L2WritebackListener(TimingSim &owner) : owner_(owner) {}

    void
    onEviction(Addr victim_addr, Addr incoming_addr,
               std::uint32_t set, bool by_prefetch,
               bool victim_was_untouched_prefetch,
               bool victim_dirty, std::uint8_t victim_meta) override
    {
        (void)victim_addr;
        (void)incoming_addr;
        (void)set;
        (void)by_prefetch;
        (void)victim_was_untouched_prefetch;
        (void)victim_meta;
        if (!victim_dirty)
            return;
        const std::uint32_t line = owner_.config_.hier.l2.lineBytes;
        owner_.running_.traffic.add(Traffic::Writeback, line);
        owner_.memData_.transfer(owner_.wbNow_, line);
    }

  private:
    TimingSim &owner_;
};

TimingSim::TimingSim(const TimingConfig &config, Prefetcher *pred)
    : config_(config), core_(config.core), hier_(config.hier),
      mshrs_(config.core.l1dMshrs), l1l2Req_(config.l1l2Bus),
      l1l2Data_(config.l1l2Bus), memReq_(config.memBus),
      memData_(config.memBus), pfPace_(config.memBus),
      metaBus_(config.memBus), dram_(config.dram), pred_(pred)
{
    const std::uint32_t line = config_.hier.l1d.lineBytes;
    l1l2ReqOcc_ = config_.l1l2Bus.occupancy(0);
    l1l2LineOcc_ = config_.l1l2Bus.occupancy(line);
    memReqOcc_ = config_.memBus.occupancy(0);
    memLineOcc_ = config_.memBus.occupancy(line);
    dramLineLat_ = dram_.latency(line);
    hier_.l1d().setListener(this);
    if (config_.hier.modelWritebacks) {
        // Only attached when writebacks are modelled, so the default
        // configuration keeps its listener-free L2 insert path.
        l2Writeback_ = std::make_unique<L2WritebackListener>(*this);
        hier_.l2().setListener(l2Writeback_.get());
    }
}

TimingSim::~TimingSim()
{
    hier_.l1d().setListener(nullptr);
    hier_.l2().setListener(nullptr);
}

// ------------------------------------------- per-event hot path
//
// Eviction feedback, the miss and prefetch event chains, and the
// per-reference bodies. run() is one pull loop with two bodies:
// stepImpl, which step() also runs, and a trimmed body for
// predictor-less runs.
//
// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

void
TimingSim::onEviction(Addr victim_addr, Addr incoming_addr,
                      std::uint32_t set, bool by_prefetch,
                      bool victim_was_untouched_prefetch,
                      bool victim_dirty,
                      std::uint8_t victim_meta)
{
    (void)incoming_addr;
    (void)set;
    (void)by_prefetch;
    if (victim_dirty && config_.hier.modelWritebacks) {
        // A dirty L1 victim writes back over the L1/L2 data channel;
        // it only continues off chip when L2 no longer holds the
        // block (no allocation on writeback: the block just left).
        const std::uint32_t line = config_.hier.l1d.lineBytes;
        l1l2Data_.transfer(wbNow_, line);
        if (!hier_.l2().setDirty(victim_addr)) {
            running_.traffic.add(Traffic::Writeback, line);
            memData_.transfer(wbNow_, line);
        }
    }
    if (!victim_was_untouched_prefetch)
        return;
    running_.useless++;
    // The classification entry rides on the victim line; a later
    // conventional prefetch may have moved the block's entry to the
    // L2 line (at most one entry exists per block).
    std::uint8_t meta = victim_meta;
    if (!(meta & LineMetaFetched))
        meta = hier_.l2().takeMeta(victim_addr);
    if ((meta & LineMetaFetched) && (meta & LineMetaOffChip)) {
        running_.traffic.add(Traffic::IncorrectPrefetch,
                             config_.hier.l1d.lineBytes);
    }
    // The victim's in-flight entry (if any) is deliberately kept: the
    // eviction removes the L1 copy, but the physical fill is still on
    // the busses, and a re-reference that hits the block's L2 copy
    // must wait for that arrival. Erasing here dropped the completion
    // time and let such re-references under-count latency; stale
    // entries are bounded by purgeInflight() instead.
    if (pred_)
        bufferFeedback(victim_addr, true);
}

Cycle
TimingSim::missCompletion(Addr block, HitLevel level, Cycle ready)
{
    (void)block;
    // Request leaves L1 after its lookup latency, crosses the L1/L2
    // bus (request phase only), then either hits in L2 or continues
    // to memory; the data crosses the L1/L2 bus on the way back.
    const std::uint32_t line = config_.hier.l1d.lineBytes;
    const Cycle req_start = ready + config_.hier.l1d.latency;
    const Cycle req_done =
        l1l2Req_.transferPrecomputed(req_start, 0, l1l2ReqOcc_);

    Cycle data_ready;
    if (level == HitLevel::L2) {
        data_ready = req_done + config_.hier.l2.latency;
    } else {
        // L2 lookup (miss) then the memory round trip.
        const Cycle mem_req = memReq_.transferPrecomputed(
            req_done + config_.hier.l2.latency, 0, memReqOcc_);
        dram_.noteRead(line);
        data_ready = mem_req + dramLineLat_;
        // Block transfer over the memory data bus.
        data_ready = memData_.transferPrecomputed(data_ready, line,
                                                  memLineOcc_);
    }
    return l1l2Data_.transferPrecomputed(data_ready, line,
                                         l1l2LineOcc_);
}

void
TimingSim::enqueuePrefetch(const PrefetchRequest &req, Cycle now)
{
    // Dead-block-aware replacement consumes the predictor's last-touch
    // prediction at enqueue time — the moment the prediction is made —
    // shared by the scalar and batched paths (both reach here through
    // stepImpl), so the two cannot diverge.
    if (req.predictedVictim != invalidAddr) {
        if (config_.hier.l1d.policy == ReplPolicy::DeadBlock)
            hier_.l1d().markDead(req.predictedVictim);
        // A last touch is program-wide: the L2 copy of the victim is
        // just as dead. The L2 mark is the one with real leverage —
        // L2 recency only updates on L1 misses, so its LRU order
        // diverges from death order far more than the L1's.
        if (config_.hier.l2.policy == ReplPolicy::DeadBlock)
            hier_.l2().markDead(req.predictedVictim);
    }
    // Duplicate filter: requests whose block is already resident (or
    // already in flight) would waste request-queue slots and issue
    // bandwidth; real prefetchers filter them against the tag array.
    // An in-flight entry counts only while its fill is still pending
    // (completion in the future): entries now outlive L1 evictions
    // (see onEviction), and a long-completed fill of a since-evicted
    // block must not veto a fresh prefetch.
    const Addr block = hier_.l1d().blockAlign(req.target);
    const Cycle *fill = inflight_.find(block);
    if (fill && *fill > now)
        return;
    if (req.intoL1 ? hier_.l1d().probe(block) : hier_.l2().probe(block))
        return;

    if (prefetchQueue_.size() >= config_.prefetchQueueEntries) {
        // New requests replace old unissued ones (Section 5). The
        // dropped prediction gets no confidence feedback: the
        // signature was not wrong, the queue was full.
        prefetchQueue_.pop_front();
        running_.dropped++;
    }
    prefetchQueue_.push_back(req);
}

void
TimingSim::drainPrefetchQueue(Cycle now)
{
    // Paced issue: one prefetch per memory-bus block-transfer time,
    // sustained. The pacing channel's horizon hands out issue slots;
    // slots are back-filled between engine events (the queue would
    // have drained continuously in hardware), bounded so stale slots
    // far in the past are not used. The transfers themselves contend
    // with demand on the shared data channels.
    drainClock_ = std::max(drainClock_, now > 1024 ? now - 1024 : 0);
    while (!prefetchQueue_.empty()) {
        // Re-filter just before issue: an earlier prefetch or demand
        // fill may have brought the block in meanwhile. Filtered
        // requests consume no issue slot.
        const PrefetchRequest &front = prefetchQueue_.front();
        const Addr block = hier_.l1d().blockAlign(front.target);
        const bool resident = front.intoL1
            ? hier_.l1d().probe(block)
            : hier_.l2().probe(block);
        const Cycle *fill = inflight_.find(block);
        if (resident || (fill && *fill > now)) {
            prefetchQueue_.pop_front();
            continue;
        }
        const Cycle slot = std::max(pfPace_.freeAt(0), drainClock_);
        if (slot > now)
            break;
        const PrefetchRequest req = prefetchQueue_.front();
        prefetchQueue_.pop_front();
        pfPace_.transferPrecomputed(slot, config_.hier.l1d.lineBytes,
                                    memLineOcc_);
        issuePrefetch(req, slot);
    }
}

void
TimingSim::issuePrefetch(const PrefetchRequest &req, Cycle now)
{
    if (config_.hier.modelWritebacks)
        wbNow_ = now; // prefetch fills can evict dirty lines
    const Addr block = hier_.l1d().blockAlign(req.target);

    if (req.intoL1) {
        if (hier_.l1d().probe(block)) {
            if (pred_)
                bufferFeedback(req.target, true);
            return;
        }
    } else if (hier_.l2().probe(block)) {
        return;
    }

    const bool l2_hit = hier_.l2().probe(block);
    const std::uint32_t line = config_.hier.l1d.lineBytes;
    const Cycle req_done =
        l1l2Req_.transferPrecomputed(now, 0, l1l2ReqOcc_);
    Cycle data_ready;
    if (l2_hit) {
        data_ready = req_done + config_.hier.l2.latency;
    } else {
        const Cycle mem_req = memReq_.transferPrecomputed(
            req_done + config_.hier.l2.latency, 0, memReqOcc_);
        dram_.noteRead(line);
        data_ready = mem_req + dramLineLat_;
        data_ready = memData_.transferPrecomputed(data_ready, line,
                                                  memLineOcc_);
    }

    if (req.intoL1) {
        const Cycle complete = l1l2Data_.transferPrecomputed(
            data_ready, line, l1l2LineOcc_);
        // Under DeadBlock the directed replacement is gated on the
        // dead mark surviving the enqueue->issue window: a demand
        // touch in between revived the block (the prediction was
        // wrong), so spare it and let the policy pick the victim
        // (which itself prefers other marked-dead ways).
        Addr directed = req.predictedVictim;
        if (config_.hier.l1d.policy == ReplPolicy::DeadBlock &&
            directed != invalidAddr && !hier_.l1d().isDead(directed))
            directed = invalidAddr;
        const PrefetchOutcome out = hier_.prefetch(req.target, directed);
        if (out.alreadyInL1)
            return;
        inflight_.insert(block, complete);
        // One classification entry per block: retire any stale
        // L2-side entry before writing the L1 line's.
        hier_.l2().takeMeta(block);
        hier_.l1d().setMeta(block,
                            LineMetaFetched |
                                (l2_hit ? 0 : LineMetaOffChip));
        if (out.l1Evicted && pred_)
            pred_->onPrefetchEviction(out.l1VictimAddr, req.target);
    } else {
        hier_.l2().fill(block);
        inflight_.insert(block, data_ready);
        hier_.l1d().takeMeta(block);
        hier_.l2().setMeta(block, LineMetaFetched | LineMetaOffChip);
    }
}

void
TimingSim::chargeMetaTraffic(Cycle now)
{
    if (!pred_)
        return;
    const auto [write_bytes, read_bytes] = pred_->drainMetaTraffic();
    if (write_bytes) {
        running_.traffic.add(Traffic::SequenceCreate, write_bytes);
        metaBus_.transfer(now, static_cast<std::uint32_t>(
                                   std::min<std::uint64_t>(write_bytes,
                                                           1 << 20)));
    }
    if (read_bytes) {
        running_.traffic.add(Traffic::SequenceFetch, read_bytes);
        metaBus_.transfer(now, static_cast<std::uint32_t>(
                                   std::min<std::uint64_t>(read_bytes,
                                                           1 << 20)));
    }
}

void
TimingSim::purgeInflight(Cycle horizon)
{
    // Safety: the core's issue cycle never decreases, every later
    // completion is at least its (later) ready >= issue cycle, so an
    // entry whose fill completed at or before the current issue cycle
    // can never raise a later completion — dropping it is invisible.
    inflight_.eraseIf([horizon](Addr, const Cycle &fill) {
        return fill <= horizon;
    });
    inflightPurgeTrigger_ =
        std::max<std::size_t>(64, 2 * inflight_.size());
}

template <std::uint32_t L1Assoc, std::uint32_t L2Assoc,
          typename Policy>
void
TimingSim::stepImpl(const MemRef &ref, PredCursor &cur)
{
    core_.issueNonMem(ref.nonMemGap);
    const Cycle issue = core_.beginMem();
    Cycle ready = issue;
    if (ref.dependsOnPrev)
        ready = std::max(ready, cur.lastLoad);

    const Addr block = hier_.l1d().blockAlign(ref.addr);
    if (config_.hier.modelWritebacks)
        wbNow_ = ready; // eviction listeners fire inside access()
    const HierOutcome out =
        hier_.access<L1Assoc, L2Assoc, Policy>(ref.addr, ref.op);
    cur.accesses++;

    Cycle complete;
    if (out.l1Hit()) {
        complete = ready + config_.hier.l1d.latency;
        // The block may be present functionally but still in flight;
        // an open-addressed probe is cheap enough to do every time.
        if (const Cycle *fill = inflight_.find(block)) {
            if (*fill > complete) {
                complete = *fill;
                cur.partial++;
            }
            inflight_.erase(block);
        }
        if (out.l1HitOnPrefetch) {
            cur.correct++;
            // The access consumed the L1 line's classification
            // entry; fall back to an L2-side entry.
            std::uint8_t meta = out.l1Meta;
            if (!(meta & LineMetaFetched))
                meta = hier_.l2().takeMeta(block);
            if ((meta & LineMetaFetched) && (meta & LineMetaOffChip))
                cur.baseBytes += config_.hier.l1d.lineBytes;
            if (pred_)
                bufferFeedback(ref.addr, false);
        }
    } else {
        cur.l1Misses++;
        if (out.level == HitLevel::Memory) {
            cur.l2Misses++;
            cur.baseBytes += config_.hier.l1d.lineBytes;
        } else if (out.l2HitOnPrefetch) {
            if ((out.l2Meta & LineMetaFetched) &&
                (out.l2Meta & LineMetaOffChip)) {
                cur.baseBytes += config_.hier.l1d.lineBytes;
            }
            if (pred_)
                bufferFeedback(ref.addr, false);
        }

        // A prefetch fill still in flight (L2 prefetch, or an L1
        // prefetch whose line was evicted before arrival) floors the
        // completion: the demand cannot finish before the data shows
        // up. Counted as partial only when the floor binds.
        Cycle inflight_floor = 0;
        if (const Cycle *fill = inflight_.find(block)) {
            inflight_floor = *fill;
            inflight_.erase(block);
        }

        if (auto merged = mshrs_.lookup(block)) {
            mshrs_.noteMerge();
            complete = std::max(*merged, ready +
                                config_.hier.l1d.latency);
            if (inflight_floor > complete) {
                complete = inflight_floor;
                cur.partial++;
            }
        } else {
            const Cycle alloc = mshrs_.allocReadyAt(ready);
            complete = missCompletion(block, out.level, alloc);
            if (inflight_floor > complete) {
                complete = inflight_floor;
                cur.partial++;
            }
            mshrs_.allocate(block, alloc, complete);
        }
        cur.missLatency += complete - ready;
    }

    core_.completeMem(complete);
    if (ref.isLoad())
        cur.lastLoad = complete;
    mshrs_.retire(complete);

    if (pred_) {
        // Access-time feedback (evictions, consumed prefetches) must
        // be visible before the predictor reads confidences.
        flushFeedback();
        pred_->setNow(issue);
        pred_->observe(ref, out);
        pred_->drainRequestsInto(reqBuf_);
        for (const PrefetchRequest &req : reqBuf_)
            enqueuePrefetch(req, ready);
        drainPrefetchQueue(ready);
        // Issue-time feedback writes confidence bytes the metadata
        // charge below accounts.
        flushFeedback();
        chargeMetaTraffic(issue);
        if (inflight_.size() >= inflightPurgeTrigger_)
            purgeInflight(issue);
    }
}

void
TimingSim::step(const MemRef &ref)
{
    PredCursor cur;
    cur.lastLoad = lastLoadComplete_;
    stepImpl<0, 0, PolicyAuto>(ref, cur);
    commitPred(cur);
}

std::uint64_t
TimingSim::run(TraceSource &src, std::uint64_t refs)
{
    // Predictor-less runs take the trimmed baseline body; with no
    // predictor the in-flight table and request queue are empty by
    // construction, and the hierarchy vouches for the rest.
    const bool baseline = pred_ == nullptr && hier_.baselineExact();
    PredCursor cur;
    cur.lastLoad = lastLoadComplete_;
    const std::uint64_t done = dispatchHierarchyKernel(
        hier_.l1d().config(), hier_.l2().config(),
        [&](auto a1, auto a2, auto pol) {
            constexpr std::uint32_t L1Assoc = decltype(a1)::value;
            constexpr std::uint32_t L2Assoc = decltype(a2)::value;
            using Policy = decltype(pol);
            if (!baseline) {
                return puller_.forEach(src, refs, [&](const MemRef &ref) {
                    stepImpl<L1Assoc, L2Assoc, Policy>(ref, cur);
                });
            }
            // Predictor-less, stepImpl degenerates to the core, MSHR,
            // bus and DRAM events below. The caches' counters live in
            // BaselineCursors for the whole run and the hierarchy's
            // are reconciled from them afterwards.
            Cache &l1 = hier_.l1d();
            Cache &l2 = hier_.l2();
            const Cache::BaselineCursor start1 = l1.baselineCursor();
            const Cache::BaselineCursor start2 = l2.baselineCursor();
            Cache::BaselineCursor c1 = start1;
            Cache::BaselineCursor c2 = start2;
            const Cycle l1_lat = config_.hier.l1d.latency;
            const std::uint32_t line_bytes = config_.hier.l1d.lineBytes;
            const std::uint64_t consumed = puller_.forEach(
                src, refs, [&](const MemRef &ref) {
                    core_.issueNonMem(ref.nonMemGap);
                    Cycle ready = core_.beginMem();
                    if (ref.dependsOnPrev)
                        ready = std::max(ready, cur.lastLoad);
                    cur.accesses++;

                    Cycle complete;
                    if (l1.accessBaseline<L1Assoc, Policy>(ref.addr,
                                                           ref.op, c1)) {
                        complete = ready + l1_lat;
                    } else {
                        cur.l1Misses++;
                        const bool l2_hit =
                            l2.accessBaseline<L2Assoc, Policy>(
                                ref.addr, ref.op, c2);
                        if (!l2_hit) {
                            cur.l2Misses++;
                            cur.baseBytes += line_bytes;
                        }
                        const Addr block = l1.blockAlign(ref.addr);
                        if (auto merged = mshrs_.lookup(block)) {
                            mshrs_.noteMerge();
                            complete = std::max(*merged, ready + l1_lat);
                        } else {
                            const Cycle alloc = mshrs_.allocReadyAt(ready);
                            complete = missCompletion(
                                block,
                                l2_hit ? HitLevel::L2 : HitLevel::Memory,
                                alloc);
                            mshrs_.allocate(block, alloc, complete);
                        }
                        cur.missLatency += complete - ready;
                    }

                    core_.completeMem(complete);
                    if (ref.isLoad())
                        cur.lastLoad = complete;
                    mshrs_.retire(complete);
                });
            l1.commitBaseline(c1);
            l2.commitBaseline(c2);
            hier_.noteBaselineBatch(c1.accesses - start1.accesses,
                                    c1.misses - start1.misses,
                                    c2.misses - start2.misses);
            return consumed;
        });
    commitPred(cur);
    maybeAudit();
    return done;
}

// LTC_HOT_END

void
TimingSim::auditInvariants() const
{
    hier_.l1d().auditInvariants();
    hier_.l2().auditInvariants();
    mshrs_.auditInvariants();
    core_.auditInvariants();
    l1l2Req_.auditInvariants();
    l1l2Data_.auditInvariants();
    memReq_.auditInvariants();
    memData_.auditInvariants();
    pfPace_.auditInvariants();
    metaBus_.auditInvariants();
    dram_.auditInvariants();
    if (pred_)
        pred_->auditInvariants();
    inflight_.auditInvariants();
    inflight_.forEach([this](Addr block, const Cycle &) {
        LTC_CHECK(hier_.l1d().blockAlign(block) == block,
                  "unaligned in-flight block ", block);
    });
}

TimingStats
TimingSim::stats() const
{
    TimingStats s = running_;
    s.cycles = core_.finishCycle();
    s.instructions = core_.instructions();
    s.ipc = core_.ipc();
    s.memBusBusy = memReq_.busyCycles() + memData_.busyCycles() +
        metaBus_.busyCycles();
    s.l1l2BusBusy = l1l2Req_.busyCycles() + l1l2Data_.busyCycles();
    s.l1l2ReqQueue = l1l2Req_.queueCycles();
    s.l1l2DataQueue = l1l2Data_.queueCycles();
    s.memReqQueue = memReq_.queueCycles();
    s.memDataQueue = memData_.queueCycles();
    return s;
}

} // namespace ltc
