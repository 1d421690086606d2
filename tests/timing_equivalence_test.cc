/**
 * @file
 * Timing-engine batched/scalar equivalence suite.
 *
 * TimingSim::run (the batched kernel, including the predictor-less
 * register-resident fast path) must be indistinguishable from a
 * manual next()/step() loop: identical TimingStats — cycles, stalls
 * (per-channel queue cycles), bus occupancy, traffic by class,
 * coverage counters — plus identical MSHR high-water marks and
 * hierarchy/cache counters, for every (workload x predictor x
 * machine) cell, under split run() budgets and mixed scalar/batched
 * use. The whole simulator is integer + fixed-seed RNG, so exact
 * equality is portable; any divergence is a kernel bug, not noise.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/timing_engine.hh"
#include "trace/primitives.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"

namespace ltc
{
namespace
{

/** One machine configuration of the sweep. */
struct MachineCase
{
    const char *name;
    TimingConfig (*make)();
};

/** Table 1 machine: (2, 8) associativity, on the dispatch table. */
TimingConfig
paperMachine()
{
    return paperTiming();
}

/**
 * Off the static-associativity dispatch table (8-way L1, 4-way L2),
 * with a small MSHR file so allocReadyAt back-pressure fires.
 */
TimingConfig
genericMachine()
{
    TimingConfig c;
    c.hier.l1d.assoc = 8;
    c.hier.l2.assoc = 4;
    c.core.l1dMshrs = 4;
    return c;
}

/**
 * Stress machine: zero-latency request phases, a core-clocked memory
 * bus, a tiny ROB/LSQ and an 8-entry prefetch queue so overflow
 * drops and queue-full replacement trigger.
 */
TimingConfig
stressMachine()
{
    TimingConfig c;
    c.l1l2Bus.requestCycles = 0;
    c.memBus.requestCycles = 0;
    c.memBus.coreCyclesPerBusCycle = 1;
    c.core.robSize = 16;
    c.core.lsqSize = 8;
    c.core.l1dMshrs = 2;
    c.prefetchQueueEntries = 8;
    return c;
}

const MachineCase kMachines[] = {
    {"paper", paperMachine},
    {"generic", genericMachine},
    {"stress", stressMachine},
};

const char *const kWorkloads[] = {"mcf", "em3d", "gzip", "swim"};
const char *const kPredictors[] = {"none", "lt-cords", "ghb", "dbcp",
                                   "stride"};

void
expectSameTiming(const TimingStats &a, const TimingStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.partial, b.partial);
    EXPECT_EQ(a.useless, b.useless);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.missLatencyTotal, b.missLatencyTotal);
    EXPECT_EQ(a.memBusBusy, b.memBusBusy);
    EXPECT_EQ(a.l1l2BusBusy, b.l1l2BusBusy);
    EXPECT_EQ(a.l1l2ReqQueue, b.l1l2ReqQueue);
    EXPECT_EQ(a.l1l2DataQueue, b.l1l2DataQueue);
    EXPECT_EQ(a.memReqQueue, b.memReqQueue);
    EXPECT_EQ(a.memDataQueue, b.memDataQueue);
    for (unsigned t = 0;
         t < static_cast<unsigned>(Traffic::NumClasses); t++) {
        EXPECT_EQ(a.traffic.bytes(static_cast<Traffic>(t)),
                  b.traffic.bytes(static_cast<Traffic>(t)))
            << "traffic class " << t;
    }
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

void
expectSameMachineState(TimingSim &a, TimingSim &b)
{
    // MSHR occupancy trajectory (high-water mark + merge count).
    EXPECT_EQ(a.mshrs().peakOccupancy(), b.mshrs().peakOccupancy());
    EXPECT_EQ(a.mshrs().merges(), b.mshrs().merges());
    EXPECT_EQ(a.mshrs().outstanding(), b.mshrs().outstanding());
    // Functional hierarchy counters.
    EXPECT_EQ(a.hierarchy().accesses(), b.hierarchy().accesses());
    EXPECT_EQ(a.hierarchy().l1Misses(), b.hierarchy().l1Misses());
    EXPECT_EQ(a.hierarchy().l2Misses(), b.hierarchy().l2Misses());
    EXPECT_EQ(a.hierarchy().l1d().accesses(),
              b.hierarchy().l1d().accesses());
    EXPECT_EQ(a.hierarchy().l1d().misses(),
              b.hierarchy().l1d().misses());
    EXPECT_EQ(a.hierarchy().l1d().evictions(),
              b.hierarchy().l1d().evictions());
    EXPECT_EQ(a.hierarchy().l2().accesses(),
              b.hierarchy().l2().accesses());
    EXPECT_EQ(a.hierarchy().l2().misses(),
              b.hierarchy().l2().misses());
    EXPECT_EQ(a.hierarchy().l2().evictions(),
              b.hierarchy().l2().evictions());
    EXPECT_EQ(a.core().instructions(), b.core().instructions());
}

/**
 * Drive one (workload, predictor, config) cell through both paths
 * and compare everything. The batched side splits its budget over
 * several run() calls so batch remainders and re-entry are covered.
 */
void
checkCellConfig(const std::string &workload,
                const std::string &pred_name,
                const std::string &label, const TimingConfig &cfg,
                std::uint64_t refs)
{
    SCOPED_TRACE(workload + "/" + pred_name + "/" + label);

    auto src_batch = makeWorkload(workload);
    auto pred_batch = makePredictor(pred_name, cfg.hier,
                                    /*model_stream_latency=*/true);
    TimingSim batched(cfg, pred_batch.get());
    std::uint64_t done = 0;
    done += batched.run(*src_batch, refs / 2);
    done += batched.run(*src_batch, 1);
    done += batched.run(*src_batch, refs - done);
    ASSERT_EQ(done, refs);

    auto src_scalar = makeWorkload(workload);
    auto pred_scalar = makePredictor(pred_name, cfg.hier,
                                     /*model_stream_latency=*/true);
    TimingSim scalar(cfg, pred_scalar.get());
    MemRef ref;
    for (std::uint64_t i = 0; i < refs; i++) {
        ASSERT_TRUE(src_scalar->next(ref));
        scalar.step(ref);
    }

    expectSameTiming(batched.stats(), scalar.stats());
    expectSameMachineState(batched, scalar);
}

void
checkCell(const std::string &workload, const std::string &pred_name,
          const MachineCase &machine, std::uint64_t refs)
{
    checkCellConfig(workload, pred_name, machine.name, machine.make(),
                    refs);
}

// ------------------------------------------------------------ tests

/** The full cell matrix (the PR's acceptance sweep). */
TEST(TimingEquivalence, EveryWorkloadPredictorMachineCell)
{
    for (const MachineCase &machine : kMachines)
        for (const char *wl : kWorkloads)
            for (const char *pred : kPredictors)
                checkCell(wl, pred, machine, 20'000);
}

/** Perfect-L1 machines bypass the fast path but must still agree. */
TEST(TimingEquivalence, PerfectL1Machine)
{
    MachineCase perfect = {"perfect-l1", [] {
                               TimingConfig c;
                               c.hier.perfectL1 = true;
                               return c;
                           }};
    checkCell("mcf", "none", perfect, 20'000);
    checkCell("gzip", "lt-cords", perfect, 20'000);
}

/**
 * Mixed use: scalar step() calls interleaved between batched run()
 * calls must leave the engine in exactly the state a pure-scalar run
 * reaches (the baseline fast path re-engages after manual steps).
 */
TEST(TimingEquivalence, MixedScalarAndBatchedUse)
{
    for (const char *pred_name : {"none", "lt-cords"}) {
        SCOPED_TRACE(pred_name);
        auto src_mixed = makeWorkload("em3d");
        auto pred_mixed = makePredictor(pred_name, paperHierarchy(),
                                        true);
        TimingSim mixed(paperTiming(), pred_mixed.get());
        mixed.run(*src_mixed, 10'000);
        MemRef ref;
        for (int i = 0; i < 1'000; i++) {
            ASSERT_TRUE(src_mixed->next(ref));
            mixed.step(ref);
        }
        mixed.run(*src_mixed, 10'000);

        auto src_scalar = makeWorkload("em3d");
        auto pred_scalar = makePredictor(pred_name, paperHierarchy(),
                                         true);
        TimingSim scalar(paperTiming(), pred_scalar.get());
        for (std::uint64_t i = 0; i < 21'000; i++) {
            ASSERT_TRUE(src_scalar->next(ref));
            scalar.step(ref);
        }

        expectSameTiming(mixed.stats(), scalar.stats());
        expectSameMachineState(mixed, scalar);
    }
}

/**
 * A hand-injected prefetch before run() poisons the fast path's
 * no-prefetch-state precondition; the kernel must detect it and stay
 * on the exact general path.
 */
TEST(TimingEquivalence, HandInjectedPrefetchDisablesFastPath)
{
    auto src_batch = makeWorkload("mcf");
    TimingSim batched(paperTiming(), nullptr);
    batched.hierarchy().prefetch(0x40, invalidAddr);
    batched.run(*src_batch, 30'000);

    auto src_scalar = makeWorkload("mcf");
    TimingSim scalar(paperTiming(), nullptr);
    scalar.hierarchy().prefetch(0x40, invalidAddr);
    MemRef ref;
    for (std::uint64_t i = 0; i < 30'000; i++) {
        ASSERT_TRUE(src_scalar->next(ref));
        scalar.step(ref);
    }

    expectSameTiming(batched.stats(), scalar.stats());
    expectSameMachineState(batched, scalar);
}

/**
 * Scripted predictor: requests one fixed L1 prefetch every time the
 * trigger address is referenced.
 */
class TriggeredPrefetcher : public Prefetcher
{
  public:
    TriggeredPrefetcher(Addr trigger, Addr target)
        : trigger_(trigger), target_(target)
    {
    }

    void
    observe(const MemRef &ref, const HierOutcome &) override
    {
        if (ref.addr == trigger_) {
            PrefetchRequest req;
            req.target = target_;
            req.intoL1 = true;
            enqueue(req);
        }
    }

    std::string name() const override { return "triggered"; }

  private:
    Addr trigger_;
    Addr target_;
};

/**
 * An L1 prefetch whose line is evicted before its fill arrives keeps
 * its in-flight entry — the data is still physically on the busses.
 * Re-requests of the block are filtered while that fill is pending,
 * and allowed again once it has completed: erasing the entry at
 * eviction (the old behaviour) re-issued the duplicate immediately,
 * while a presence-based filter would veto the later, genuinely
 * fresh prefetch. Both engine paths must agree exactly.
 */
TEST(TimingEquivalence, EvictionKeepsPendingFillAndFiltersDuplicates)
{
    const TimingConfig cfg = paperTiming();
    const Addr line = cfg.hier.l1d.lineBytes;
    const Addr stride = cfg.hier.l1d.numSets() * line;
    const Addr target = 16 * stride;  // the prefetched block (set 0)
    const Addr trigger = target + line; // fires the predictor (set 1)
    const Addr idle = target + 2 * line; // neutral address (set 2)

    std::vector<MemRef> refs;
    const auto load = [&refs](Addr addr, std::uint32_t gap) {
        MemRef r;
        r.pc = 0x400000 + refs.size() * 4;
        r.addr = addr;
        r.nonMemGap = gap;
        refs.push_back(r);
    };
    load(trigger, 0);            // prefetch of target goes in flight
    load(target + stride, 0);    // fills the set's second way
    load(target + 2 * stride, 0); // evicts the untouched prefetch
    load(trigger, 0);            // duplicate request: fill pending
    load(idle, 1'000'000);       // idle gap past the fill completion
    load(trigger, 0);            // fresh request: must issue again

    TriggeredPrefetcher pred_scalar(trigger, target);
    TimingSim scalar(cfg, &pred_scalar);
    {
        VectorTrace src(refs);
        MemRef r;
        while (src.next(r))
            scalar.step(r);
    }

    TriggeredPrefetcher pred_batched(trigger, target);
    TimingSim batched(cfg, &pred_batched);
    {
        VectorTrace src(refs);
        EXPECT_EQ(batched.run(src, refs.size()), refs.size());
    }

    // One fill evicted untouched, its in-flight duplicate filtered
    // (not dropped — it never entered the queue), and exactly one
    // genuine re-fill after the data had arrived.
    EXPECT_EQ(scalar.hierarchy().l1d().prefetchFills(), 2u);
    EXPECT_EQ(scalar.stats().useless, 1u);
    EXPECT_EQ(scalar.stats().dropped, 0u);

    expectSameTiming(batched.stats(), scalar.stats());
    expectSameMachineState(batched, scalar);
}

/**
 * Every replacement-policy plugin must keep the batched kernels
 * (static associativity, policy inlined) equal to the scalar step()
 * path — including Random, whose RNG draw order is part of the
 * contract, and DeadBlock, whose markDead wiring is shared by both
 * paths through enqueuePrefetch.
 */
TEST(TimingEquivalence, ReplacementPolicySweep)
{
    for (const ReplPolicy p : allReplPolicies) {
        TimingConfig c;
        c.hier.l1d.policy = p;
        c.hier.l2.policy = p;
        checkCellConfig("mcf", "none", replPolicyName(p), c, 20'000);
        checkCellConfig("em3d", "lt-cords", replPolicyName(p), c,
                        20'000);
    }
}

/** Different L1/L2 policies take the PolicyAuto kernel; must agree. */
TEST(TimingEquivalence, MixedPolicyHierarchy)
{
    TimingConfig c;
    c.hier.l2.policy = ReplPolicy::RRIP; // L1 stays LRU
    checkCellConfig("gzip", "lt-cords", "lru+rrip", c, 20'000);
}

/**
 * modelWritebacks adds eviction-driven bus events inside access();
 * the batched kernel must schedule them identically, and the
 * baseline fast path (which bypasses listeners) must stand down.
 */
TEST(TimingEquivalence, WritebackModelling)
{
    TimingConfig c;
    c.hier.modelWritebacks = true;
    checkCellConfig("gzip", "none", "writebacks", c, 20'000);
    checkCellConfig("mcf", "lt-cords", "writebacks", c, 20'000);
}

/**
 * The dirty bit must actually reach the bus: a store-heavy stream
 * whose footprint overflows L2 produces nonzero Writeback traffic
 * when the knob is on, and exactly zero when it is off (the default
 * — existing goldens depend on it).
 */
TEST(TimingEquivalence, WritebackTrafficNonzeroOnlyWhenEnabled)
{
    ScanArray a;
    a.base = 0x5000000;
    a.blocks = 32768; // 2 MB of 64 B blocks: overflows the 1 MB L2
    a.accessesPerBlock = 2;
    a.stores = true;
    const std::uint64_t refs = 2 * 32768;

    TimingConfig on;
    on.hier.modelWritebacks = true;
    StridedScanSource src_on({a}, 3);
    TimingSim sim_on(on, nullptr);
    sim_on.run(src_on, refs);
    EXPECT_GT(sim_on.stats().traffic.bytes(Traffic::Writeback), 0u);

    StridedScanSource src_off({a}, 3);
    TimingSim sim_off(TimingConfig{}, nullptr);
    sim_off.run(src_off, refs);
    EXPECT_EQ(sim_off.stats().traffic.bytes(Traffic::Writeback), 0u);
}

/**
 * A finite trace that ends inside the budget (after a short fill, and
 * exactly at a batch boundary): run() returns the trace length, a
 * second run() on the drained source consumes nothing and changes no
 * stat, and the result equals a step() loop over the same records.
 * The trace engine's counterpart is
 * MultiProgEquivalence.TenantTraceEndsMidQuantum.
 */
TEST(TimingEquivalence, TraceEndsInsideBudget)
{
    const std::vector<MemRef> stream = collect(*makeWorkload("mcf"), 512);
    ASSERT_EQ(stream.size(), 512u);
    for (const std::size_t len : {300u, 512u}) {
        const std::vector<MemRef> refs(stream.begin(),
                                       stream.begin() + len);
        for (const char *pred_name : {"none", "lt-cords"}) {
            SCOPED_TRACE(std::string(pred_name) + "/" +
                         std::to_string(len));
            auto pred_batch = makePredictor(pred_name, paperHierarchy(),
                                            /*model_stream_latency=*/true);
            TimingSim batched(paperTiming(), pred_batch.get());
            VectorTrace src(refs);
            EXPECT_EQ(batched.run(src, 1'000), len);
            const TimingStats first = batched.stats();
            EXPECT_EQ(batched.run(src, 1'000), 0u);
            expectSameTiming(batched.stats(), first);

            auto pred_scalar = makePredictor(pred_name, paperHierarchy(),
                                             /*model_stream_latency=*/true);
            TimingSim scalar(paperTiming(), pred_scalar.get());
            for (const MemRef &r : refs)
                scalar.step(r);
            expectSameTiming(batched.stats(), scalar.stats());
            expectSameMachineState(batched, scalar);
        }
    }
}

/** run() must never pull more records than its budget. */
TEST(TimingEquivalence, RunNeverOverdraws)
{
    auto src = makeWorkload("gzip");
    TimingSim sim(paperTiming(), nullptr);
    EXPECT_EQ(sim.run(*src, 777), 777u);
    EXPECT_EQ(sim.stats().accesses, 777u);
    // The next record the source yields is record 778 of the stream:
    // an independent consumer sees the identical continuation.
    auto fresh = makeWorkload("gzip");
    MemRef expect, got;
    for (int i = 0; i < 777; i++)
        ASSERT_TRUE(fresh->next(expect));
    for (int i = 0; i < 100; i++) {
        ASSERT_TRUE(fresh->next(expect));
        ASSERT_TRUE(src->next(got));
        ASSERT_TRUE(got == expect) << "record " << 777 + i;
    }
}

} // namespace
} // namespace ltc
