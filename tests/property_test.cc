/**
 * @file
 * Cross-cutting property tests: randomised workload mixes and
 * configurations driven through both engines, checking the global
 * invariants that must hold for *any* input:
 *
 *  - engines never crash and their counters stay consistent,
 *  - identical (seed, config) runs are bit-identical,
 *  - IPC is bounded by issue width and positive,
 *  - coverage is a fraction of opportunity,
 *  - prefetching never changes the demand reference stream's
 *    functional footprint (same blocks touched),
 *  - every predictor obeys the drain/feedback protocol under fuzzed
 *    streams,
 *  - the hand-optimised side structures (MSHR file, buses, GHB walk,
 *    eviction-mark store) match deliberately naive reference models
 *    step for step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "core/ltcords.hh"
#include "mem/bus.hh"
#include "pred/ghb.hh"
#include "sim/experiment.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"
#include "trace/primitives.hh"
#include "util/hash.hh"
#include "util/random.hh"

namespace ltc
{
namespace
{

/** Randomised composite workload built from a seed. */
std::unique_ptr<TraceSource>
fuzzWorkload(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::unique_ptr<TraceSource>> kids;
    std::vector<std::uint64_t> chunks;
    const int n = static_cast<int>(rng.range(1, 3));
    for (int i = 0; i < n; i++) {
        const Addr base = 0x10000000 + static_cast<Addr>(i) * 0x4000000;
        switch (rng.below(4)) {
          case 0: {
            ScanArray a;
            a.base = base;
            a.blocks = rng.range(64, 8192);
            a.accessesPerBlock =
                static_cast<std::uint32_t>(rng.range(1, 4));
            kids.push_back(std::make_unique<StridedScanSource>(
                std::vector<ScanArray>{a},
                static_cast<std::uint32_t>(rng.below(8))));
            break;
          }
          case 1: {
            PointerChaseParams p;
            p.base = base;
            p.nodes = rng.range(16, 8192);
            p.accessesPerNode =
                static_cast<std::uint32_t>(rng.range(1, 4));
            p.seed = rng.next();
            p.mutateEveryIters = rng.below(3);
            p.mutateFraction = rng.uniform() * 0.3;
            kids.push_back(std::make_unique<PointerChaseSource>(p));
            break;
          }
          case 2: {
            TreeWalkParams p;
            p.base = base;
            p.nodes = rng.range(15, 4095);
            p.regularLayout = rng.chance(0.5);
            p.seed = rng.next();
            kids.push_back(std::make_unique<TreeWalkSource>(p));
            break;
          }
          default: {
            HashProbeParams p;
            p.base = base;
            p.blocks = rng.range(64, 16384);
            p.hotFraction = rng.uniform();
            p.hotBlocks = rng.range(1, 64);
            p.seed = rng.next();
            kids.push_back(std::make_unique<HashProbeSource>(p));
            break;
          }
        }
        chunks.push_back(rng.range(1, 8));
    }
    if (kids.size() == 1)
        return std::move(kids[0]);
    return std::make_unique<InterleaveSource>(std::move(kids),
                                              std::move(chunks));
}

class FuzzProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzProperty, TraceEngineInvariants)
{
    auto src = fuzzWorkload(GetParam());
    auto pred = makePredictor("lt-cords", paperHierarchy());
    TraceEngine engine(paperHierarchy(), pred.get());
    engine.run(*src, 100'000);
    engine.auditInvariants(); // full structural sweep on fuzzed state
    const auto &s = engine.stats();
    EXPECT_EQ(s.accesses, 100'000u);
    EXPECT_LE(s.l1Misses, s.accesses);
    EXPECT_LE(s.l2Misses, s.l1Misses);
    EXPECT_LE(s.correct, s.accesses);
    EXPECT_LE(s.incorrect() + s.train(), s.l1Misses);
    EXPECT_GE(s.instructions, s.accesses);
}

TEST_P(FuzzProperty, TimingEngineInvariants)
{
    auto src = fuzzWorkload(GetParam());
    TimingConfig cfg;
    auto pred = makePredictor("lt-cords", cfg.hier, true);
    TimingSim sim(cfg, pred.get());
    sim.run(*src, 60'000);
    sim.auditInvariants(); // full structural sweep on fuzzed state
    const auto s = sim.stats();
    EXPECT_GT(s.cycles, 0u);
    EXPECT_GT(s.ipc, 0.0);
    EXPECT_LE(s.ipc, static_cast<double>(cfg.core.width) + 1e-9);
    EXPECT_LE(s.l2Misses, s.l1Misses);
}

TEST_P(FuzzProperty, RunsAreDeterministic)
{
    auto run = [&](const char *pred_name) {
        auto src = fuzzWorkload(GetParam());
        auto pred = makePredictor(pred_name, paperHierarchy());
        TraceEngine engine(paperHierarchy(), pred.get());
        engine.run(*src, 50'000);
        const auto &s = engine.stats();
        return std::tuple(s.l1Misses, s.l2Misses, s.correct,
                          s.uselessPrefetches, s.early);
    };
    for (const char *name : {"lt-cords", "dbcp", "ghb", "markov"})
        EXPECT_EQ(run(name), run(name)) << name;
}

TEST_P(FuzzProperty, PrefetchingPreservesDemandFootprint)
{
    // The set of blocks demand-touched must not depend on the
    // predictor (prefetching changes timing and residency, never the
    // reference stream).
    auto touched = [&](const char *pred_name) {
        auto src = fuzzWorkload(GetParam());
        auto pred = makePredictor(pred_name, paperHierarchy());
        TraceEngine engine(paperHierarchy(), pred.get());
        MemRef ref;
        std::set<Addr> blocks;
        for (int i = 0; i < 30'000 && src->next(ref); i++) {
            blocks.insert(ref.addr & ~63ull);
            engine.step(ref);
        }
        return blocks;
    };
    EXPECT_EQ(touched("none"), touched("lt-cords"));
}

TEST_P(FuzzProperty, EveryPredictorSurvivesTheStream)
{
    for (const auto &name : predictorNames()) {
        if (name == "none")
            continue;
        auto src = fuzzWorkload(GetParam());
        auto pred = makePredictor(name, paperHierarchy());
        TraceEngine engine(paperHierarchy(), pred.get());
        engine.run(*src, 40'000);
        SUCCEED() << name;
    }
}

TEST_P(FuzzProperty, LtCordsPointersStayValid)
{
    // Stress frame conflicts: a tiny off-chip storage forces constant
    // re-recording; stale on-chip pointers must be detected, never
    // followed into freed fragments.
    LtcordsConfig cfg = paperLtcords(paperHierarchy());
    cfg.numFrames = 8;
    cfg.fragmentSignatures = 64;
    cfg.sigCacheEntries = 256;
    cfg.sigCacheAssoc = 2;
    LtCords ltc(cfg);
    auto src = fuzzWorkload(GetParam());
    TraceEngine engine(paperHierarchy(), &ltc);
    engine.run(*src, 80'000);
    ltc.auditInvariants(); // frame links survive constant conflicts
    EXPECT_GT(ltc.storage().frameConflicts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

/** Hierarchy geometry sweep through the trace engine. */
struct HierGeom
{
    std::uint64_t l1_kb;
    std::uint32_t l1_assoc;
    std::uint64_t l2_kb;
    std::uint32_t l2_assoc;
};

class GeometryProperty : public ::testing::TestWithParam<HierGeom>
{
};

TEST_P(GeometryProperty, LtCordsAdaptsToGeometry)
{
    const auto g = GetParam();
    HierarchyConfig hier;
    hier.l1d.sizeBytes = g.l1_kb * 1024;
    hier.l1d.assoc = g.l1_assoc;
    hier.l2.sizeBytes = g.l2_kb * 1024;
    hier.l2.assoc = g.l2_assoc;

    ScanArray a;
    a.base = 0x10000000;
    a.blocks = 4 * hier.l1d.numLines(); // 4x whatever L1 holds
    a.accessesPerBlock = 2;
    StridedScanSource src({a}, 1);

    LtCords ltc(paperLtcords(hier));
    auto stats = runWithOpportunity(hier, &ltc, src,
                                    10 * a.blocks * 2);
    EXPECT_GT(stats.coverage(), 0.5)
        << g.l1_kb << "KB/" << g.l1_assoc << "-way";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometryProperty,
    ::testing::Values(HierGeom{16, 1, 256, 4}, HierGeom{32, 2, 512, 8},
                      HierGeom{64, 2, 1024, 8},
                      HierGeom{64, 4, 1024, 8},
                      HierGeom{128, 8, 2048, 16}));

//
// MSHR file: randomized sequences against a naive reference model.
//
// MshrFile short-circuits its per-reference retire() with a cached
// earliest-completion and screens lookup() with a presence filter;
// both are pure optimizations, so the file must stay observably
// identical to the obvious implementation (eager scans everywhere)
// at EVERY step of any allocate/lookup/retire schedule.
//

/** The obvious MSHR implementation: no caches, no filters. */
class NaiveMshr
{
  public:
    explicit NaiveMshr(std::uint32_t capacity) : capacity_(capacity) {}

    Cycle
    allocReadyAt(Cycle now) const
    {
        if (entries_.size() < capacity_)
            return now;
        Cycle earliest = entries_.front().second;
        for (const auto &e : entries_)
            earliest = std::min(earliest, e.second);
        return std::max(now, earliest);
    }

    void
    allocate(Addr block, Cycle start, Cycle completion)
    {
        retire(start);
        ASSERT_LT(entries_.size(), capacity_);
        entries_.emplace_back(block, completion);
        peak_ = std::max<std::uint32_t>(
            peak_, static_cast<std::uint32_t>(entries_.size()));
    }

    std::optional<Cycle>
    lookup(Addr block) const
    {
        for (const auto &e : entries_)
            if (e.first == block)
                return e.second;
        return std::nullopt;
    }

    void
    retire(Cycle now)
    {
        std::erase_if(entries_,
                      [now](const auto &e) { return e.second <= now; });
    }

    std::uint32_t
    outstanding() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }
    std::uint32_t peakOccupancy() const { return peak_; }

  private:
    std::uint32_t capacity_;
    std::vector<std::pair<Addr, Cycle>> entries_;
    std::uint32_t peak_ = 0;
};

class MshrProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MshrProperty, RandomScheduleMatchesNaiveModelExactly)
{
    Rng rng(GetParam());
    const std::uint32_t capacity =
        static_cast<std::uint32_t>(rng.range(1, 16));
    MshrFile file(capacity);
    NaiveMshr naive(capacity);

    Cycle now = 0;
    for (int op = 0; op < 20'000; op++) {
        now += rng.below(40); // time may stall, never reverses
        const Addr block = (rng.below(24)) * 64;

        // Retire ticks arrive in bursts, as in the batched kernel.
        if (rng.chance(0.6)) {
            file.retire(now);
            naive.retire(now);
        }

        const auto got = file.lookup(block);
        const auto want = naive.lookup(block);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
        if (got) {
            ASSERT_EQ(*got, *want) << "op " << op;
            file.noteMerge();
        } else {
            // A pending miss must never be lost: allocate and check
            // it is findable with the exact completion time.
            const Cycle ready = file.allocReadyAt(now);
            ASSERT_EQ(ready, naive.allocReadyAt(now)) << "op " << op;
            const Cycle completion = ready + 1 + rng.below(400);
            file.allocate(block, ready, completion);
            naive.allocate(block, ready, completion);
            ASSERT_EQ(file.lookup(block), std::optional(completion));
        }

        // Occupancy trajectory identical, capacity never exceeded.
        ASSERT_EQ(file.outstanding(), naive.outstanding())
            << "op " << op;
        ASSERT_LE(file.outstanding(), capacity);
        ASSERT_EQ(file.peakOccupancy(), naive.peakOccupancy());

        // Representation invariants (presence filter, cached
        // earliest) hold at every point of the random schedule, not
        // just when the behaviour happens to match the naive model.
        if (op % 256 == 0)
            file.auditInvariants();
    }
    file.auditInvariants();
}

TEST_P(MshrProperty, BurstRetireEqualsSingleStepping)
{
    // The event-granular property the batched timing kernel leans on:
    // retiring once at time T releases exactly the entries that
    // stepping retire() through every intermediate time would have
    // released, so skipped no-op ticks cannot change the occupancy
    // trace.
    Rng rng(GetParam() * 7919 + 1);
    const std::uint32_t capacity = 8;
    MshrFile burst(capacity);
    MshrFile stepped(capacity);

    Cycle now = 0;
    for (int round = 0; round < 500; round++) {
        const std::uint32_t n =
            static_cast<std::uint32_t>(rng.range(1, capacity));
        for (std::uint32_t i = 0; i < n; i++) {
            const Addr block =
                (static_cast<Addr>(round) * capacity + i) * 64;
            const Cycle ready = burst.allocReadyAt(now);
            const Cycle completion = ready + 1 + rng.below(300);
            burst.allocate(block, ready, completion);
            stepped.allocate(block, ready, completion);
        }
        const Cycle target = now + rng.below(500);
        for (Cycle t = now; t <= target; t += 1 + rng.below(60))
            stepped.retire(t);
        stepped.retire(target);
        burst.retire(target);
        now = target;
        ASSERT_EQ(burst.outstanding(), stepped.outstanding())
            << "round " << round;
        ASSERT_EQ(burst.allocReadyAt(now), stepped.allocReadyAt(now));
        burst.auditInvariants();
        stepped.auditInvariants();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MshrProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

//
// Bus: randomized transfer schedules against the occupancy algebra.
//

class BusProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BusProperty, RandomScheduleObeysOccupancyAlgebra)
{
    Rng rng(GetParam() * 31 + 5);
    BusConfig cfg;
    cfg.requestCycles = rng.below(3);
    cfg.bytesPerCycle = 1u << rng.range(0, 6);
    cfg.coreCyclesPerBusCycle =
        static_cast<std::uint32_t>(rng.range(1, 4));
    Bus bus(cfg);

    Cycle busy_until = 0; // reference horizon
    Cycle busy_sum = 0;
    Cycle queue_sum = 0;
    Cycle ready = 0;
    for (int i = 0; i < 10'000; i++) {
        ready += rng.below(20);
        const std::uint32_t bytes =
            static_cast<std::uint32_t>(rng.below(256));

        ASSERT_EQ(bus.freeAt(ready), std::max(ready, busy_until));

        const Cycle done = bus.transfer(ready, bytes);
        const Cycle start = std::max(ready, busy_until);
        const Cycle occ = cfg.occupancy(bytes);
        ASSERT_EQ(done, start + occ) << "transfer " << i;
        queue_sum += start - ready;
        busy_until = start + occ;
        busy_sum += occ;

        ASSERT_EQ(bus.busyCycles(), busy_sum);
        ASSERT_EQ(bus.queueCycles(), queue_sum);
        ASSERT_LE(bus.busyCycles(), busy_until);
        if (i % 256 == 0)
            bus.auditInvariants();
    }
    bus.auditInvariants();
}

TEST_P(BusProperty, PrecomputedOccupancyPathIsIdentical)
{
    // transferPrecomputed(ready, occupancy(bytes)) is the
    // timing engine's hoisted-division fast path; it must be
    // indistinguishable from transfer() for any schedule.
    Rng rng(GetParam() * 131 + 17);
    BusConfig cfg = BusConfig::memory();
    Bus plain(cfg);
    Bus pre(cfg);

    Cycle ready = 0;
    for (int i = 0; i < 10'000; i++) {
        ready += rng.below(12);
        const std::uint32_t bytes =
            rng.chance(0.5) ? 0u : cfg.bytesPerCycle * 2;
        const Cycle a = plain.transfer(ready, bytes);
        const Cycle b =
            pre.transferPrecomputed(ready, cfg.occupancy(bytes));
        ASSERT_EQ(a, b) << "transfer " << i;
    }
    EXPECT_EQ(plain.busyCycles(), pre.busyCycles());
    EXPECT_EQ(plain.queueCycles(), pre.queueCycles());
    plain.auditInvariants();
    pre.auditInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

//
// GHB PC/DC: randomized miss streams against the two-phase algorithm.
//
// Ghb::observe walks the PC's chain once, computing deltas as it goes
// and stopping at the first delta-pair match. The reference below is
// the obvious formulation: collect the whole chain (up to maxChain
// entries) into a vector, turn it into a delta vector, then search it.
// Both must issue the same requests and count the same statistics.
//

/** The obvious GHB PC/DC: materialise the chain, then search it. */
class NaiveGhb
{
  public:
    explicit NaiveGhb(const GhbConfig &config)
        : config_(config), ring_(config.ghbEntries),
          index_(config.indexEntries)
    {
    }

    /** Observe one L1 miss; returns the prefetch targets issued. */
    std::vector<Addr>
    miss(Addr pc, Addr addr)
    {
        misses++;
        const Addr block = addr & ~static_cast<Addr>(config_.lineBytes - 1);
        const std::uint64_t serial = nextSerial_++;
        Head &head = index_[mix64(pc) & (config_.indexEntries - 1)];
        Entry &entry = ring_[serial % config_.ghbEntries];
        entry.missAddr = block;
        entry.hasPrev = head.valid && head.pc == pc && live(head.serial);
        entry.prevSerial = head.serial;
        head = Head{true, pc, serial};

        std::vector<Addr> history; // newest first
        std::uint64_t s = serial;
        while (live(s) && history.size() < Ghb::maxChain) {
            const Entry &e = ring_[s % config_.ghbEntries];
            history.push_back(e.missAddr);
            if (!e.hasPrev)
                break;
            s = e.prevSerial;
        }
        longestChain = std::max(longestChain, history.size());
        std::vector<std::int64_t> deltas;
        for (std::size_t i = 0; i + 1 < history.size(); i++) {
            deltas.push_back(static_cast<std::int64_t>(history[i]) -
                             static_cast<std::int64_t>(history[i + 1]));
        }
        std::size_t match = 0;
        for (std::size_t i = 2; i + 1 < deltas.size(); i++) {
            if (deltas[i] == deltas[0] && deltas[i + 1] == deltas[1]) {
                match = i;
                break;
            }
        }
        std::vector<Addr> targets;
        if (match == 0)
            return targets;
        matches++;
        Addr target = block;
        for (std::uint32_t n = 0; n < config_.depth; n++) {
            const std::size_t k = match - 1 - n % match;
            target += static_cast<Addr>(deltas[k]);
            targets.push_back(target);
        }
        issued += targets.size();
        return targets;
    }

    std::uint64_t misses = 0;
    std::uint64_t matches = 0;
    std::uint64_t issued = 0;
    std::size_t longestChain = 0;

  private:
    struct Entry
    {
        Addr missAddr = 0;
        std::uint64_t prevSerial = 0;
        bool hasPrev = false;
    };
    struct Head
    {
        bool valid = false;
        Addr pc = 0;
        std::uint64_t serial = 0;
    };

    bool
    live(std::uint64_t serial) const
    {
        return serial != 0 && serial < nextSerial_ &&
            nextSerial_ - serial <= config_.ghbEntries;
    }

    GhbConfig config_;
    std::vector<Entry> ring_;
    std::vector<Head> index_;
    std::uint64_t nextSerial_ = 1;
};

class GhbProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GhbProperty, RandomMissStreamMatchesNaiveModelExactly)
{
    Rng rng(GetParam() * 104729 + 11);
    GhbConfig cfg;
    if (GetParam() % 2 == 0) {
        // Off-default geometries: tiny rings wrap every few misses,
        // a 1-entry index makes every PC alias.
        cfg.ghbEntries = 1u << rng.range(1, 10);
        cfg.indexEntries = 1u << rng.range(0, 8);
        cfg.depth = static_cast<std::uint32_t>(rng.range(1, 8));
        cfg.lineBytes = 32u << rng.below(3);
    }
    Ghb ghb(cfg);
    NaiveGhb naive(cfg);

    // A few PCs, one pair of which collides in the index table.
    std::vector<Addr> pcs;
    const std::uint64_t imask = cfg.indexEntries - 1;
    const Addr alias = 0x400 + rng.below(1 << 16) * 4;
    Addr twin = alias + 4;
    while ((mix64(twin) & imask) != (mix64(alias) & imask))
        twin += 4;
    pcs.push_back(alias);
    pcs.push_back(twin);
    const std::uint64_t extra = rng.range(0, 3);
    for (std::uint64_t i = 0; i < extra; i++)
        pcs.push_back(0x800000 + rng.below(1 << 20) * 4);

    // Per-PC address generator: constant strides, short repeating
    // delta cycles, repeats of the same block, and random jumps.
    struct Stream
    {
        Addr next = 0;
        std::vector<std::int64_t> cycle;
        std::size_t pos = 0;
    };
    std::vector<Stream> streams;
    for (std::size_t p = 0; p < pcs.size(); p++) {
        Stream st;
        st.next = 0x10000000 + static_cast<Addr>(p) * 0x1000000;
        const std::uint64_t len = rng.range(1, 5);
        for (std::uint64_t i = 0; i < len; i++) {
            st.cycle.push_back(
                (static_cast<std::int64_t>(rng.below(9)) - 4) * 64);
        }
        streams.push_back(st);
    }

    // Phases of 200 misses: in solo phases only the first PC misses,
    // so its chain outgrows maxChain; mixed phases interleave every
    // PC, and the index twin keeps cutting the first PC's chain.
    bool solo = false;
    std::vector<PrefetchRequest> got;
    for (int op = 0; op < 4000; op++) {
        if (op % 200 == 0)
            solo = rng.chance(0.4);
        const std::size_t p = solo ? 0 : rng.below(pcs.size());
        Stream &st = streams[p];
        const double roll = rng.uniform();
        if (roll < 0.05) {
            st.next += rng.below(1 << 16) * 64; // random delta
        } else if (roll < 0.95) {
            st.next += static_cast<Addr>(st.cycle[st.pos]);
            st.pos = (st.pos + 1) % st.cycle.size();
        } // else the same block misses again

        MemRef ref;
        ref.pc = pcs[p];
        ref.addr = st.next + rng.below(cfg.lineBytes);
        HierOutcome out;
        const bool hit = rng.chance(0.1);
        out.level = hit ? HitLevel::L1 : HitLevel::Memory;
        ghb.observe(ref, out);

        ghb.drainRequestsInto(got);
        const std::vector<Addr> want =
            hit ? std::vector<Addr>{} : naive.miss(ref.pc, ref.addr);
        ASSERT_EQ(got.size(), want.size()) << "op " << op;
        for (std::size_t i = 0; i < got.size(); i++) {
            ASSERT_EQ(got[i].target, want[i]) << "op " << op;
            ASSERT_FALSE(got[i].intoL1);
            ASSERT_EQ(got[i].predictedVictim, invalidAddr);
        }
    }

    StatSet stats("ghb");
    ghb.exportStats(stats);
    EXPECT_EQ(stats.get("misses_observed"),
              static_cast<double>(naive.misses));
    EXPECT_EQ(stats.get("delta_matches"),
              static_cast<double>(naive.matches));
    EXPECT_EQ(stats.get("prefetches_issued"),
              static_cast<double>(naive.issued));
    if (GetParam() % 2 == 1) {
        // The default geometry: the stream must reach the regimes
        // the test is for (ring wrap is implied by 4000 misses).
        EXPECT_GT(naive.matches, 0u);
        EXPECT_EQ(naive.longestChain, Ghb::maxChain);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GhbProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

//
// Eviction marks: randomized cache schedules against a std::set.
//
// Cache keeps early-eviction marks as region bitmaps in a hash map;
// observably it is a set of block addresses. The schedule follows the
// engines' protocol (mark only non-resident blocks, clear on every
// miss or prefetch fill) over a tiny cache, so evictions and re-marks
// are constant, and draws addresses from blocks at the edges of
// regions in several 4 GiB-shifted tenant spaces.
//

class EvictionMarkProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EvictionMarkProperty, RandomScheduleMatchesSetOracle)
{
    Rng rng(GetParam() * 7727 + 29);
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.assoc = 2;
    cfg.lineBytes = 64;
    cfg.sizeBytes = 4 * 2 * 64; // 4 sets
    Cache c(cfg);
    std::set<Addr> oracle;

    std::vector<Addr> blocks;
    for (Addr tenant : {0ull, 1ull, 6ull}) {
        for (Addr region : {0ull, 1ull, 63ull, 64ull, 0xfffffull,
                            0x100000ull}) {
            for (Addr b : {0ull, 1ull, 2ull, 31ull, 62ull, 63ull}) {
                blocks.push_back((tenant << 32) + region * 4096 +
                                 b * 64);
            }
        }
    }

    auto clear = [&](Addr addr, int op) {
        const bool want = oracle.erase(addr & ~63ull) > 0;
        ASSERT_EQ(c.clearEvictedMark(addr), want) << "op " << op;
    };
    auto mark = [&](Addr victim) {
        c.markEvicted(victim);
        oracle.insert(victim);
    };

    for (int op = 0; op < 30'000; op++) {
        const Addr addr = blocks[rng.below(blocks.size())] +
            rng.below(64);
        switch (rng.below(5)) {
          case 0:
          case 1: {
            const CacheOutcome out = c.access(
                addr, rng.chance(0.3) ? MemOp::Store : MemOp::Load);
            if (!out.hit)
                clear(addr, op);
            if (out.evicted && rng.chance(0.8))
                mark(out.victimAddr);
            break;
          }
          case 2: {
            const Addr victim = blocks[rng.below(blocks.size())];
            const CacheOutcome out =
                c.fill(addr, rng.chance(0.5) ? invalidAddr : victim,
                       LineMetaFetched);
            if (!out.hit)
                clear(addr, op);
            if (out.evicted && rng.chance(0.8))
                mark(out.victimAddr);
            break;
          }
          case 3:
            if (!c.probe(addr))
                mark(addr & ~63ull);
            break;
          default:
            clear(addr, op);
            break;
        }
        if (op % 512 == 0)
            c.auditInvariants();
    }

    // Drain: every block answers exactly as the oracle says, once.
    c.auditInvariants();
    for (Addr b : blocks)
        clear(b, -1);
    EXPECT_TRUE(oracle.empty());
    for (Addr b : blocks)
        EXPECT_FALSE(c.clearEvictedMark(b));
    c.auditInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvictionMarkProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace ltc
