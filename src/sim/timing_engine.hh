/**
 * @file
 * Cycle timing engine.
 *
 * Combines the ROB-window core model (src/cpu) with the functional
 * hierarchy, MSHR file, L1/L2 and memory busses and the DRAM latency
 * model to produce IPC — the engine behind Table 3 and Figure 12.
 *
 * Mechanisms modelled (Section 5 of the paper):
 *  - two L1/L2 channels (an L2 request can issue while a fill is in
 *    progress) — approximated with separate request/data occupancy,
 *  - 64 L1D MSHRs with merge-on-match,
 *  - predictor requests held in a 128-entry queue (new requests
 *    replace the oldest unissued on overflow, per Section 5) and
 *    issued one per memory-bus block-transfer time, paced by the
 *    pfPace_ channel; their transfers move on the shared demand
 *    channels and contend with demand fills,
 *  - prefetched blocks that are still in flight at demand time hide
 *    only part of the miss latency,
 *  - LT-cords signature streaming and sequence-creation traffic
 *    charged to the memory bus on its own low-priority channel,
 *    metaBus_, so it does not delay demand fills.
 */

#ifndef LTC_SIM_TIMING_ENGINE_HH
#define LTC_SIM_TIMING_ENGINE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/mshr.hh"
#include "cpu/core_config.hh"
#include "cpu/ooo_core.hh"
#include "mem/bandwidth.hh"
#include "mem/bus.hh"
#include "mem/dram.hh"
#include "pred/prefetcher.hh"
#include "trace/trace.hh"
#include "util/check.hh"
#include "util/flat_map.hh"
#include "util/types.hh"

namespace ltc
{

/** Full configuration of the timing engine (Table 1 defaults). */
struct TimingConfig
{
    /** Out-of-order core model parameters. */
    CoreConfig core;
    /** L1/L2 hierarchy geometry. */
    HierarchyConfig hier;
    /** L1-L2 bus channels. */
    BusConfig l1l2Bus = BusConfig::l1l2();
    /** Memory bus channels. */
    BusConfig memBus = BusConfig::memory();
    /** DRAM latency model parameters. */
    DramConfig dram;
    /** Predictor request queue entries. */
    std::uint32_t prefetchQueueEntries = 128;
};

/** Results of a timing run. */
struct TimingStats
{
    Cycle cycles = 0;           //!< simulated cycles
    InstCount instructions = 0; //!< committed instructions
    double ipc = 0.0;           //!< instructions / cycles

    std::uint64_t accesses = 0; //!< memory references processed
    std::uint64_t l1Misses = 0; //!< demand L1D misses
    std::uint64_t l2Misses = 0; //!< demand L2 misses
    std::uint64_t correct = 0;   //!< demand hits on prefetched blocks
    std::uint64_t partial = 0;   //!< prefetched but still in flight
    std::uint64_t useless = 0;   //!< prefetched blocks never used
    std::uint64_t dropped = 0;   //!< queue overflow drops

    BandwidthAccount traffic; //!< bytes moved, by traffic class
    Cycle memBusBusy = 0;     //!< memory-bus busy cycles
    Cycle l1l2BusBusy = 0;    //!< L1-L2 bus busy cycles
    /** Cycles transfers spent queued, per channel (contention). */
    Cycle l1l2ReqQueue = 0;
    Cycle l1l2DataQueue = 0;
    Cycle memReqQueue = 0;
    Cycle memDataQueue = 0;
    /** Sum of demand L1-miss service latencies (completion - ready). */
    Cycle missLatencyTotal = 0;

    /** Bytes of traffic class @p t moved per committed instruction. */
    double
    bytesPerInstruction(Traffic t) const
    {
        return traffic.perInstruction(t, instructions);
    }
};

/** The cycle timing engine (see the file comment). */
class TimingSim
{
  public:
    /**
     * @param config Machine configuration.
     * @param pred   Predictor driven by the engine (may be null for
     *               baseline runs); not owned.
     */
    TimingSim(const TimingConfig &config, Prefetcher *pred);

    TimingSim(const TimingSim &) = delete;            //!< non-copyable
    TimingSim &operator=(const TimingSim &) = delete; //!< non-copyable

    /** Process one reference. */
    void step(const MemRef &ref);

    /**
     * Run up to @p refs references, pulled in batches through
     * TraceSource::fill() by a RefPuller (see TraceEngine::run).
     * Never pulls more than @p refs records.
     *
     * @return References actually consumed (short on a trace end).
     */
    std::uint64_t run(TraceSource &src, std::uint64_t refs);

    /** Snapshot of current results. */
    TimingStats stats() const;

    /** The core model (test access). */
    OooCore &core() { return core_; }
    /** The cache hierarchy (test access). */
    CacheHierarchy &hierarchy() { return hier_; }
    /** The MSHR file (test access: occupancy trajectory checks). */
    MshrFile &mshrs() { return mshrs_; }

    /**
     * Audit every structure the timing model owns: both caches, the
     * MSHR file, all six bus channels, the DRAM model, the core's
     * rings, the predictor, and the engine-side in-flight table.
     * run() calls this automatically after every batch of work when
     * auditing is enabled — debug builds, or LTC_AUDIT=1 in the
     * environment (util/check.hh).
     */
    void auditInvariants() const;

  private:
    /** The run()-boundary audit hook (no-op unless auditing is on). */
    void
    maybeAudit() const
    {
        if (ltcAuditEnabled())
            auditInvariants();
    }

    /**
     * Register-resident counter state for run()'s two per-reference
     * bodies: the TimingStats counters they increment live in this
     * POD for a whole run, so the inner loop carries no loop-carried
     * dependences through the engine's memory. They are disjoint from
     * everything the victim handlers (l1Victim, l2Victim) and the
     * prefetch path write into running_ (useless, dropped, writeback,
     * incorrect-prefetch and sequence traffic), so folding them in
     * once does not reorder any observable event. step() commits one
     * immediately, run() at run end.
     */
    struct PredCursor
    {
        std::uint64_t accesses = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t correct = 0;
        std::uint64_t partial = 0;
        std::uint64_t baseBytes = 0; //!< Traffic::BaseData
        Cycle missLatency = 0;
        Cycle lastLoad = 0;
    };

    /**
     * The full per-reference event sequence — shared verbatim by the
     * scalar step() (instantiated with runtime associativity and
     * PolicyAuto) and run() (associativity and policy from
     * dispatchHierarchyKernel), so the two paths cannot diverge; the
     * timing-equivalence suite pins it. run() swaps in a trimmed body
     * for predictor-less runs: the same core, MSHR, bus and DRAM
     * events with the prefetch machinery (in-flight table, request
     * queue, metadata bits) compiled out and the caches driven
     * through Cache::accessBaseline.
     */
    template <std::uint32_t L1Assoc, std::uint32_t L2Assoc,
              typename Policy>
    void stepImpl(const MemRef &ref, PredCursor &cur);

    /** Fold a cursor back into the running statistics. */
    void
    commitPred(const PredCursor &cur)
    {
        running_.accesses += cur.accesses;
        running_.l1Misses += cur.l1Misses;
        running_.l2Misses += cur.l2Misses;
        running_.correct += cur.correct;
        running_.partial += cur.partial;
        running_.traffic.add(Traffic::BaseData, cur.baseBytes);
        running_.missLatencyTotal += cur.missLatency;
        lastLoadComplete_ = cur.lastLoad;
    }

    /**
     * Drop in-flight entries whose fill completed at or before
     * @p horizon (the current issue cycle, which the core never
     * rewinds). Such an entry can never floor a later completion —
     * every later completion is at least the later issue cycle — so
     * the purge is semantics-preserving; it only bounds the table,
     * which no longer shrinks at evictions (an evicted block's
     * pending fill must keep its completion time, see l1Victim).
     * Amortized: runs when the table reaches the trigger size, which
     * then doubles.
     */
    void purgeInflight(Cycle horizon);

    /** Latency path for a demand L1 miss; returns completion cycle. */
    Cycle missCompletion(HitLevel level, Cycle ready);

    /**
     * The prefetch filter of enqueue and issue: @p req's block is
     * resident at its target level, or its fill is still in flight at
     * @p now. Real prefetchers filter such requests against the tag
     * array; they would waste queue slots and issue bandwidth.
     */
    bool redundant(const PrefetchRequest &req, Cycle now) const;

    /** Enqueue a predictor request (dropping the oldest when full)
     *  unless it is redundant at @p now. */
    void enqueuePrefetch(const PrefetchRequest &req, Cycle now);

    /** Issue queued prefetches while the pacing channel has a slot
     *  free at @p now. */
    void drainPrefetchQueue(Cycle now);

    /** Issue one prefetch request at time @p now. */
    void issuePrefetch(const PrefetchRequest &req, Cycle now);

    /** Charge predictor metadata traffic to the memory bus. */
    void chargeMetaTraffic(Cycle now);

    /**
     * Account an L1D victim evicted at cycle @p now: its writeback
     * (L1/L2 data channel, and off chip unless L2 absorbed it) and,
     * for a useless prefetch, incorrect-prefetch traffic and
     * predictor feedback.
     */
    void l1Victim(const Victim &v, Cycle now);

    /** Account an L2 victim's writeback off chip at cycle @p now. */
    void l2Victim(const Victim &v, Cycle now);

    TimingConfig config_;
    OooCore core_;
    CacheHierarchy hier_;
    MshrFile mshrs_;
    /**
     * Split-transaction busses: a request channel and a data channel
     * each, so an L2 request can issue while a fill is in progress
     * (the paper's "two channels between the L1 and L2").
     */
    Bus l1l2Req_;
    Bus l1l2Data_;
    Bus memReq_;
    Bus memData_;
    /**
     * Prefetch pacing channel: every issued prefetch occupies it for
     * one block transfer, and the queue drains only while it is free,
     * so prefetch issue is rate-limited to the memory bus's transfer
     * rate and cannot burst (the paper issues requests one at a time,
     * "when the L1/L2 bus is free"). Pacing only; not accounted.
     */
    Bus pfPace_;
    /**
     * LT-cords sequence traffic (signature writes/streams). Carried
     * on its own low-priority channel: it is accounted toward memory
     * bus utilization (Fig. 12) but does not delay demand fills,
     * modelling the paper's use of otherwise-unused bus cycles
     * (Section 4.4).
     */
    Bus metaBus_;
    DramModel dram_;
    Prefetcher *pred_;

    /** Pending predictor requests (the 128-entry request queue). */
    std::deque<PrefetchRequest> prefetchQueue_;

    /**
     * Blocks prefetched but whose data is still in flight, mapped to
     * the cycle the fill completes. Open-addressed (util/flat_map.hh):
     * probes are cheap by construction — an absent key on an
     * empty-ish table is one masked load — so the hit/miss/enqueue
     * paths probe unconditionally instead of guarding with empty()
     * checks that once let the call sites diverge. Entries persist
     * across L1 evictions (the data is still physically in flight;
     * see l1Victim) and are bounded by purgeInflight().
     */
    AddrMap<Cycle> inflight_;
    /** purgeInflight() trigger size (doubles after each purge). */
    std::size_t inflightPurgeTrigger_ = 64;
    /**
     * Off-chip classification of prefetched blocks rides on the
     * cache lines themselves (LineMeta* bits, cache/cache.hh); the
     * engine keeps only reusable buffers.
     */
    RefPuller puller_;                    //!< run() pull buffer
    std::vector<PrefetchRequest> reqBuf_; //!< predictor drain buffer

    // Per-run constants of the miss event path, hoisted out of the
    // per-event arithmetic: bus occupancies for the two transfer
    // sizes the demand/prefetch paths move (a bare request and one
    // cache block) and the DRAM latency of a block read. All are
    // functions of the configuration only.
    Cycle l1l2ReqOcc_;  //!< L1/L2 bus occupancy of a bare request
    Cycle l1l2LineOcc_; //!< L1/L2 bus occupancy of a block transfer
    Cycle memReqOcc_;   //!< memory bus occupancy of a bare request
    Cycle memLineOcc_;  //!< memory bus occupancy of a block transfer
    Cycle dramLineLat_; //!< DRAM latency of one block read

    Cycle lastLoadComplete_ = 0;
    /** Monotonic clock for prefetch issue pacing (reference ready
     *  times regress when independent and dependent streams
     *  interleave; pacing must not). */
    Cycle drainClock_ = 0;
    TimingStats running_;
};

} // namespace ltc

#endif // LTC_SIM_TIMING_ENGINE_HH
