#include "sim/timing_engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ltc
{

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
}

// ------------------------------------------- per-event hot path
//
// Victim handling, the miss and prefetch event chains, and the
// per-reference bodies. run() is one pull loop with two bodies:
// stepImpl, which step() also runs, and a trimmed body for
// predictor-less runs.
//
// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

void
TimingSim::l1Victim(const Victim &v, Cycle now)
{
    const std::uint32_t line = config_.hier.l1d.lineBytes;
    if (v.writeback) {
        // A dirty L1 victim writes back over the L1/L2 data channel;
        // it only continues off chip when L2 no longer held the block
        // to absorb it.
        l1l2Data_.transfer(now, line);
        if (!v.absorbed) {
            running_.traffic.add(Traffic::Writeback, line);
            memData_.transfer(now, line);
        }
    }
    if (!v.untouchedPrefetch)
        return;
    running_.useless++;
    if (fetchedOffChip(v.meta))
        running_.traffic.add(Traffic::IncorrectPrefetch, line);
    // The victim's in-flight entry (if any) is deliberately kept: the
    // eviction removes the L1 copy, but the physical fill is still on
    // the busses, and a re-reference that hits the block's L2 copy
    // must wait for that arrival. Erasing here dropped the completion
    // time and let such re-references under-count latency; stale
    // entries are bounded by purgeInflight() instead.
    if (pred_)
        pred_->feedback({v.addr, true});
}

void
TimingSim::l2Victim(const Victim &v, Cycle now)
{
    // A dirty L2 victim leaves the chip, occupying the shared memory
    // data channel so writebacks contend with demand fills the way
    // they would in hardware. An untouched prefetched L2 victim is
    // not classified here: this engine tracks prefetch usefulness
    // through L1 victims and the in-flight table only.
    if (!v.writeback)
        return;
    const std::uint32_t line = config_.hier.l2.lineBytes;
    running_.traffic.add(Traffic::Writeback, line);
    memData_.transfer(now, line);
}

Cycle
TimingSim::missCompletion(HitLevel level, Cycle ready)
{
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
        data_ready = mem_req + dramLineLat_;
        // Block transfer over the memory data bus.
        data_ready = memData_.transferPrecomputed(data_ready, line,
                                                  memLineOcc_);
    }
    return l1l2Data_.transferPrecomputed(data_ready, line,
                                         l1l2LineOcc_);
}

bool
TimingSim::redundant(const PrefetchRequest &req, Cycle now) const
{
    // An in-flight entry counts only while its fill is still pending
    // (completion in the future): entries outlive L1 evictions (see
    // l1Victim), and a long-completed fill of a since-evicted block
    // must not veto a fresh prefetch.
    const Addr block = hier_.l1d().blockAlign(req.target);
    const Cycle *fill = inflight_.find(block);
    if (fill && *fill > now)
        return true;
    return req.intoL1 ? hier_.l1d().probe(block) : hier_.l2().probe(block);
}

void
TimingSim::enqueuePrefetch(const PrefetchRequest &req, Cycle now)
{
    // Dead-block-aware replacement consumes the predictor's last-touch
    // prediction at enqueue time, the moment the prediction is made;
    // the install at issue spares a victim revived in between
    // (CacheHierarchy::prefetch).
    hier_.markDead(req.predictedVictim);
    if (redundant(req, now))
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
        if (redundant(prefetchQueue_.front(), now)) {
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
    const Addr block = hier_.l1d().blockAlign(req.target);
    PrefetchOutcome out;
    if (req.intoL1)
        out = hier_.prefetch(req.target, req.predictedVictim);
    else
        out = hier_.prefetchL2(block);
    // The drain filter issues no request whose block is already at its
    // target level, except under a perfect L1, which holds every block:
    // then nothing moves.
    if (req.intoL1 ? out.alreadyInL1 : out.l2Hit)
        return;

    // Time the transfers from where the hierarchy found the data. An
    // L2-only request completes when the data reaches L2, an L1 request
    // once it has crossed the L1/L2 data channel.
    const std::uint32_t line = config_.hier.l1d.lineBytes;
    const Cycle req_done =
        l1l2Req_.transferPrecomputed(now, 0, l1l2ReqOcc_);
    Cycle data_ready;
    if (out.l2Hit) {
        data_ready = req_done + config_.hier.l2.latency;
    } else {
        const Cycle mem_req = memReq_.transferPrecomputed(
            req_done + config_.hier.l2.latency, 0, memReqOcc_);
        data_ready = memData_.transferPrecomputed(
            mem_req + dramLineLat_, line, memLineOcc_);
    }
    const Cycle complete = req.intoL1
        ? l1l2Data_.transferPrecomputed(data_ready, line, l1l2LineOcc_)
        : data_ready;

    l2Victim(out.l2Victim, now);
    l1Victim(out.l1Victim, now);
    inflight_.insert(block, complete);
    if (out.l1Victim.evicted && pred_)
        pred_->onPrefetchEviction(out.l1Victim.addr, req.target);
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
    const HierOutcome out =
        hier_.access<L1Assoc, L2Assoc, Policy>(ref.addr, ref.op);
    l1Victim(out.l1Victim, ready);
    l2Victim(out.l2Victim, ready);
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
            if (fetchedOffChip(out.l1Meta))
                cur.baseBytes += config_.hier.l1d.lineBytes;
            if (pred_)
                pred_->feedback({ref.addr, false});
        }
    } else {
        cur.l1Misses++;
        if (out.level == HitLevel::Memory) {
            cur.l2Misses++;
            cur.baseBytes += config_.hier.l1d.lineBytes;
        } else if (out.l2HitOnPrefetch) {
            if (fetchedOffChip(out.l2Meta))
                cur.baseBytes += config_.hier.l1d.lineBytes;
            if (pred_)
                pred_->feedback({ref.addr, false});
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
            complete = missCompletion(out.level, alloc);
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
        // The access-time feedback above precedes setNow() and
        // observe(), whose confidence reads must see it.
        pred_->setNow(issue);
        pred_->observe(ref, out);
        pred_->drainRequestsInto(reqBuf_);
        for (const PrefetchRequest &req : reqBuf_)
            enqueuePrefetch(req, ready);
        drainPrefetchQueue(ready);
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
            // BaselineCursors for the whole run.
            Cache &l1 = hier_.l1d();
            Cache &l2 = hier_.l2();
            Cache::BaselineCursor c1 = l1.baselineCursor();
            Cache::BaselineCursor c2 = l2.baselineCursor();
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
