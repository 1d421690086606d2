/**
 * @file
 * Golden-trace regression suite.
 *
 * The .ltct fixtures under tests/data/ are captures of the synthetic
 * primitives (StridedScanSource, PointerChaseSource,
 * InterleaveSource, TreeWalkSource) whose end-to-end metrics through
 * the trace engine (coverage taxonomy) and the timing engine (IPC)
 * are pinned EXACTLY below: any change to the predictor stack, the
 * hierarchy, the engines or the trace container that shifts a single
 * miss fails this suite. The whole simulator is integer + fixed-seed
 * RNG, so exact equality is portable.
 *
 * Maintenance:
 *  - `LTC_GOLDEN_REGEN=1 ./ltc_tests
 *     --gtest_filter='GoldenFixtures.Regenerate'` rewrites the
 *    fixtures from the builders below (they self-verify: the replay
 *    test proves fixture bytes == builder output).
 *  - `LTC_GOLDEN_PRINT=1 ./ltc_tests
 *     --gtest_filter='*Golden*'` prints the expectation tables in
 *    copy-pasteable form after an intended behaviour change.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ltcords.hh"
#include "sim/experiment.hh"
#include "sim/multiprog.hh"
#include "sim/runner.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"
#include "trace/file_trace.hh"
#include "trace/primitives.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"
#include "util/hash.hh"
#include "util/random.hh"

namespace ltc
{
namespace
{

#ifndef LTC_TEST_DATA_DIR
#error "LTC_TEST_DATA_DIR must point at tests/data"
#endif

constexpr std::uint32_t kFixtureChunk = 8192;

std::string
dataPath(const std::string &file)
{
    return std::string(LTC_TEST_DATA_DIR) + "/" + file;
}

// ------------------------------------------------- fixture builders
//
// These are the single source of truth for what the checked-in
// fixtures contain; Replay below asserts the files match them
// record-for-record.

std::unique_ptr<TraceSource>
buildStridedScan()
{
    ScanArray a;
    a.base = 0x1000000;
    a.blocks = 4096;
    a.accessesPerBlock = 2;
    a.pc = 0x1000;
    return std::make_unique<StridedScanSource>(
        std::vector<ScanArray>{a}, /*non_mem_gap=*/3, "golden.scan");
}

std::unique_ptr<TraceSource>
buildPointerChase()
{
    PointerChaseParams p;
    p.base = 0x2000000;
    p.nodes = 4096;
    p.accessesPerNode = 1;
    p.seed = 42;
    p.nonMemGap = 4;
    p.pc = 0x2000;
    return std::make_unique<PointerChaseSource>(p, "golden.chase");
}

std::unique_ptr<TraceSource>
buildInterleave()
{
    ScanArray a;
    a.base = 0x1000000;
    a.blocks = 2048;
    a.accessesPerBlock = 2;
    a.pc = 0x1100;
    auto scan = std::make_unique<StridedScanSource>(
        std::vector<ScanArray>{a}, /*non_mem_gap=*/2, "golden.mix.scan");

    PointerChaseParams p;
    p.base = 0x1800000;
    p.nodes = 2048;
    p.accessesPerNode = 1;
    p.seed = 9;
    p.nonMemGap = 3;
    p.pc = 0x2100;
    auto chase =
        std::make_unique<PointerChaseSource>(p, "golden.mix.chase");

    std::vector<std::unique_ptr<TraceSource>> kids;
    kids.push_back(std::move(scan));
    kids.push_back(std::move(chase));
    return std::make_unique<InterleaveSource>(
        std::move(kids), std::vector<std::uint64_t>{6, 1},
        "golden.mix");
}

std::unique_ptr<TraceSource>
buildTreeWalk()
{
    TreeWalkParams p;
    p.base = 0x3000000;
    p.nodes = 4095;
    p.accessesPerNode = 2;
    p.regularLayout = true;
    p.seed = 5;
    p.nonMemGap = 2;
    p.pc = 0x3000;
    return std::make_unique<TreeWalkSource>(p, "golden.tree");
}

struct FixtureSpec
{
    const char *file;
    std::uint64_t refs;
    std::unique_ptr<TraceSource> (*build)();
};

const FixtureSpec kFixtures[] = {
    {"strided_scan.ltct", 65536, buildStridedScan},
    {"pointer_chase.ltct", 32768, buildPointerChase},
    {"interleave.ltct", 40960, buildInterleave},
    {"tree_walk.ltct", 32760, buildTreeWalk},
};

// --------------------------------------------------- golden metrics

/** Trace-engine expectations (exact; see file comment). */
struct TraceGolden
{
    const char *file;
    std::uint64_t opportunity; //!< baseline L1D misses
    std::uint64_t l1Misses;    //!< misses with LT-cords attached
    std::uint64_t correct;     //!< misses eliminated by streaming
    std::uint64_t early;       //!< premature-eviction extra misses
    std::uint64_t useless;     //!< prefetched blocks never touched
};

/**
 * Timing-engine expectations (exact): cycle count, the coverage
 * counters and the Figure 12 bandwidth numbers (per-class traffic
 * bytes and memory-bus busy cycles), so any batched-kernel change
 * that shifts a single bus transfer or prefetch outcome fails here.
 */
struct TimingGolden
{
    const char *file;
    std::uint64_t cycles;
    std::uint64_t instructions;
    std::uint64_t l1Misses;
    std::uint64_t correct; //!< demand hits on prefetched blocks
    std::uint64_t l2Misses;
    std::uint64_t partial; //!< prefetched but still in flight
    std::uint64_t useless; //!< prefetched blocks never used
    std::uint64_t memBusBusy;  //!< memory-bus busy cycles
    std::uint64_t baseBytes;   //!< Traffic::BaseData
    std::uint64_t wrongBytes;  //!< Traffic::IncorrectPrefetch
    std::uint64_t createBytes; //!< Traffic::SequenceCreate
    std::uint64_t fetchBytes;  //!< Traffic::SequenceFetch
};

// Values pinned from the initial capture (see file comment for the
// regeneration workflow).
const TraceGolden kTraceGolden[] = {
    {"strided_scan.ltct", 32768, 8233, 24535, 1058, 0},
    {"pointer_chase.ltct", 32768, 7727, 25041, 216, 0},
    {"interleave.ltct", 23406, 13695, 9711, 1175, 171},
    {"tree_walk.ltct", 16380, 7203, 9177, 17, 0},
};

/**
 * GHB PC/DC expectations (exact): the trace engine with the GHB
 * baseline over each fixture. GHB prefetches install into L2 only, so
 * the L1/L2 miss counts, the useless count and the predictor's own
 * counters pin its chain walk, delta-pair match and replay
 * bit-for-bit.
 */
struct GhbGolden
{
    const char *file;
    std::uint64_t l1Misses;
    std::uint64_t l2Misses;
    std::uint64_t useless;      //!< prefetched blocks never touched
    std::uint64_t deltaMatches; //!< Ghb stat "delta_matches"
    std::uint64_t issued;       //!< Ghb stat "prefetches_issued"
};

const GhbGolden kGhbGolden[] = {
    {"strided_scan.ltct", 32768, 5, 0, 32750, 131000},
    {"pointer_chase.ltct", 32768, 4096, 0, 0, 0},
    {"interleave.ltct", 23406, 2053, 0, 17535, 70140},
    {"tree_walk.ltct", 16380, 4095, 0, 0, 0},
};

/**
 * Long-run LT-cords expectation (exact) on a generated workload, far
 * past the fixtures' lengths: at 1M references swim leaves ~190K
 * early-eviction marks live in the L1D, so this row pins the "early"
 * class (Fig. 8) where the mark store holds hundreds of marks per set.
 */
struct LongRunGolden
{
    const char *workload;
    std::uint64_t refs;
    std::uint64_t l1Misses;
    std::uint64_t correct;
    std::uint64_t early;
    std::uint64_t useless;
};

const LongRunGolden kLongRunGolden[] = {
    {"swim", 1'000'000, 306005, 193995, 0, 0},
    {"em3d", 1'000'000, 191700, 673687, 10032, 0},
};

const TimingGolden kTimingGolden[] = {
    {"strided_scan.ltct", 123799, 262144, 24002, 8766, 4096, 0, 0,
     270828, 262144, 0, 123384, 348160},
    {"pointer_chase.ltct", 1247944, 163840, 12532, 20236, 4096, 103,
     13, 262206, 262144, 0, 77789, 230470},
    {"interleave.ltct", 99291, 128731, 19548, 3858, 4096, 132, 147,
     189114, 262144, 0, 96121, 92160},
    {"tree_walk.ltct", 74675, 98280, 13075, 3305, 4095, 243, 23,
     149487, 262080, 0, 63583, 87040},
};

/**
 * Predictor-less timing expectations (exact): pins the baseline
 * cycle-engine path — the fast kernel TimingSim::run takes when no
 * predictor is attached — including the stall/latency accounting.
 */
struct TimingBaselineGolden
{
    const char *file;
    std::uint64_t cycles;
    std::uint64_t l1Misses;
    std::uint64_t l2Misses;
    std::uint64_t missLatencyTotal;
    std::uint64_t memBusBusy;
    std::uint64_t baseBytes; //!< Traffic::BaseData
};

const TimingBaselineGolden kTimingBaselineGolden[] = {
    {"strided_scan.ltct", 123113, 32768, 4096, 3937600, 49152,
     262144},
    {"pointer_chase.ltct", 1732609, 32768, 4096, 1732608, 49152,
     262144},
    {"interleave.ltct", 98405, 23406, 4096, 4609307, 49152, 262144},
    {"tree_walk.ltct", 73943, 16380, 4095, 3176062, 49140, 262080},
};

/**
 * Scaled multi-programmed expectations (exact): pins the batched
 * multi-tenant engine loop (TraceEngine::runSchedule), the
 * churn-driven schedule generator and signature-cache partitioning
 * end to end — aggregate opportunity/misses/coverage over all
 * tenants plus the cross-tenant sequence-storage interference
 * counter. Shared-mode rows double as the guarantee that the
 * tenant plumbing leaves single-cache behaviour untouched.
 */
struct Fig11ScaleGolden
{
    std::uint32_t tenants;
    std::uint32_t partitions; //!< 1 = shared signature cache
    std::uint64_t churnSeed;  //!< 0 = static round-robin
    std::uint64_t opportunity;
    std::uint64_t l1Misses;
    std::uint64_t correct;
    std::uint64_t crossConflicts;
};

const Fig11ScaleGolden kFig11ScaleGolden[] = {
    {2, 1, 0, 20090, 18837, 2619, 0},
    {2, 2, 0, 20090, 16819, 3273, 0},
    {8, 1, 7, 127998, 99229, 28769, 1},
    {8, 8, 7, 127998, 109098, 18901, 2},
};

/**
 * Writeback-mode expectations (exact): pins the modelWritebacks knob
 * end to end on a store-heavy stream whose 2 MB footprint overflows
 * the 1 MB L2, so dirty L2 victims actually leave the chip. One row
 * per engine; the off-mode is pinned by every other golden in this
 * file (the knob defaults off and the Writeback class stays zero).
 */
struct WritebackGolden
{
    std::uint64_t traceOpportunity; //!< trace engine baseline pass
    std::uint64_t traceL1Misses;    //!< trace engine, lt-cords
    std::uint64_t traceCorrect;
    std::uint64_t traceWbBytes;     //!< Traffic::Writeback (trace)
    std::uint64_t timingCycles;     //!< timing engine, lt-cords
    std::uint64_t timingL2Misses;
    std::uint64_t timingWbBytes;    //!< Traffic::Writeback (timing)
    std::uint64_t timingMemBusBusy;
};

const WritebackGolden kWritebackGolden = {
    32768, 32768, 0, 1048576, 442601, 32768, 1048576, 731136,
};

/**
 * Predictor-less writeback expectations (exact): the trace engine with
 * no predictor and modelWritebacks on, over a generated workload whose
 * dirty L2 victims leave the chip. Pins the predictor-less run that
 * cannot take the trimmed baseline body (the body reports no
 * victims, so it cannot charge writebacks).
 */
struct BaselineWritebackGolden
{
    const char *workload;
    std::uint64_t refs;
    std::uint64_t l1Misses;
    std::uint64_t l2Misses;
    std::uint64_t wbBytes;   //!< Traffic::Writeback
    std::uint64_t baseBytes; //!< Traffic::BaseData
};

const BaselineWritebackGolden kBaselineWritebackGolden[] = {
    {"gcc", 300'000, 155845, 26864, 173248, 1719296},
};

/**
 * Container expectations (exact) per fixture: the structure
 * probeTraceFile walks (chunks, payload and file bytes), the header
 * fields probeTraceHeader reads, and the FNV-1a-64 digest of the
 * records, which every read path must reproduce: the streaming
 * reader's fill() at several batch sizes (one of them a whole
 * chunk), readTraceFile(), a v2 -> v2 conversion and a v1 round trip.
 */
struct ContainerGolden
{
    const char *file;
    std::uint32_t version;
    std::uint64_t records;
    std::uint32_t chunkRecords;
    std::uint64_t chunks;
    std::uint64_t payloadBytes;
    std::uint64_t fileBytes;
    std::uint64_t digest; //!< over each record's fields, in order
};

const ContainerGolden kContainerGolden[] = {
    {"strided_scan.ltct", 2, 65536, 8192, 8, 196640, 196800,
     0x731f58a99d1a3325ULL},
    {"pointer_chase.ltct", 2, 32768, 8192, 4, 161628, 161724,
     0x69c318ac612b63c5ULL},
    {"interleave.ltct", 2, 40960, 8192, 5, 169717, 169829,
     0xb46e254b63c92816ULL},
    {"tree_walk.ltct", 2, 32760, 8192, 4, 122348, 122444,
     0x2cfc3f732a519755ULL},
};

/**
 * Per-policy baseline expectations (exact): the trace engine with no
 * predictor over the interleave fixture, one row per replacement
 * policy. Pins every plugin's victim selection bit-for-bit — and
 * documents that DeadBlock with no predictions degenerates to LRU.
 * On this fixture the 2-way L1 makes the deterministic orderings
 * (FIFO/RRIP/DRRIP/SHiP) coincide with LRU; Random is the row that
 * proves victim selection actually flows through the plugin.
 */
struct PolicyGolden
{
    ReplPolicy policy;
    std::uint64_t l1Misses;
    std::uint64_t l2Misses;
};

const PolicyGolden kPolicyGolden[] = {
    {ReplPolicy::LRU, 23406, 4096},
    {ReplPolicy::FIFO, 23406, 4096},
    {ReplPolicy::Random, 22356, 4096},
    {ReplPolicy::RRIP, 23406, 4096},
    {ReplPolicy::DRRIP, 23406, 4096},
    {ReplPolicy::SHiP, 23406, 4096},
    {ReplPolicy::DeadBlock, 23406, 4096},
};

/**
 * Test-only predictor that mixes both request kinds over overlapping
 * blocks: on each reference it may ask for an L1-directed prefetch
 * and an L2-only prefetch, each of a block drawn from the 16 lines
 * after the referenced one by a seeded RNG, and half the L1 requests
 * made on an evicting miss name the access's own L1 victim as the
 * predicted victim. No production predictor issues both kinds, so
 * only runs like these reach the cross-level classification cases:
 * an L2 victim whose entry sits on its L1 copy, an L1 victim or L1
 * prefetch hit whose entry sits on its L2 copy, and a dirty L1 victim
 * landing on an untouched prefetched L2 line.
 */
class MixedPrefetcher : public Prefetcher
{
  public:
    MixedPrefetcher(std::uint64_t seed, std::uint32_t line_bytes)
        : rng_(seed), lineBytes_(line_bytes)
    {
    }

    void
    observe(const MemRef &ref, const HierOutcome &out) override
    {
        const Addr block = ref.addr & ~static_cast<Addr>(lineBytes_ - 1);
        if (rng_.below(6) == 0) {
            PrefetchRequest req;
            req.target = block + (1 + rng_.below(16)) * lineBytes_;
            req.intoL1 = true;
            if (out.l1Victim.evicted && rng_.below(2) == 0)
                req.predictedVictim = out.l1Victim.addr;
            enqueue(req);
        }
        if (rng_.below(6) == 0) {
            PrefetchRequest req;
            req.target = block + (1 + rng_.below(16)) * lineBytes_;
            enqueue(req);
        }
    }

    std::string name() const override { return "mixed"; }

  private:
    Rng rng_;
    std::uint32_t lineBytes_;
};

/** Every CoverageStats counter, in mixedTraceFields() order. */
constexpr std::size_t kMixedTraceFields =
    8 + static_cast<std::size_t>(Traffic::NumClasses);
/** Every integral TimingStats counter, in mixedTimingFields() order. */
constexpr std::size_t kMixedTimingFields =
    16 + static_cast<std::size_t>(Traffic::NumClasses);

std::array<std::uint64_t, kMixedTraceFields>
mixedTraceFields(const CoverageStats &s)
{
    std::array<std::uint64_t, kMixedTraceFields> f = {
        s.opportunity, s.accesses, s.instructions,      s.l1Misses,
        s.l2Misses,    s.correct,  s.uselessPrefetches, s.early,
    };
    for (unsigned t = 0; t < static_cast<unsigned>(Traffic::NumClasses);
         t++)
        f[8 + t] = s.traffic.bytes(static_cast<Traffic>(t));
    return f;
}

std::array<std::uint64_t, kMixedTimingFields>
mixedTimingFields(const TimingStats &s)
{
    std::array<std::uint64_t, kMixedTimingFields> f = {
        s.cycles,        s.instructions, s.accesses,   s.l1Misses,
        s.l2Misses,      s.correct,      s.partial,    s.useless,
        s.dropped,       s.memBusBusy,   s.l1l2BusBusy, s.l1l2ReqQueue,
        s.l1l2DataQueue, s.memReqQueue,  s.memDataQueue,
        s.missLatencyTotal,
    };
    for (unsigned t = 0; t < static_cast<unsigned>(Traffic::NumClasses);
         t++)
        f[16 + t] = s.traffic.bytes(static_cast<Traffic>(t));
    return f;
}

/**
 * Mixed-request expectations (exact): MixedPrefetcher (seed 7) for
 * 300k references through both engines, under writeback modelling
 * off/on and LRU/DeadBlock (both levels). mcf and em3d issue loads
 * only, so their writeback rows repeat the off rows; gcc stores, so
 * its rows pin dirty victims meeting prefetched lines. The smallL2
 * rows shrink L2 to 128 KiB, 4-way: as many sets as L1D, so an
 * access's L2 step often evicts the L2 copy of its own L1 victim, and
 * the order of the two levels' writeback handling shows in the
 * Writeback bytes.
 *
 * Pins every CoverageStats counter (mixedTraceFields order:
 * opportunity, accesses, instructions, L1/L2 misses, correct,
 * useless, early, then the bytes of each traffic class) and every
 * TimingStats counter (mixedTimingFields order: cycles,
 * instructions, accesses, L1/L2 misses, correct, partial, useless,
 * dropped, memory and L1/L2 bus busy cycles, the four channel queue
 * totals, miss latency, then the traffic classes) plus the IPC.
 */
struct MixedGolden
{
    const char *workload;
    bool writebacks;
    ReplPolicy policy;
    bool smallL2; //!< 128 KiB 4-way L2 instead of Table 1's
    std::array<std::uint64_t, kMixedTraceFields> trace;
    std::array<std::uint64_t, kMixedTimingFields> timing;
    double ipc;
};

const MixedGolden kMixedGolden[] = {
    {"mcf", false, ReplPolicy::LRU, false,
     {171429, 300000, 900000, 171086, 162689, 343, 83925, 9427, 10708224,
      4881344, 0, 0, 0},
     {12143509, 900000, 300000, 171086, 162689, 343, 13, 48458, 0, 2970240,
      922621, 496831347, 2761731, 1239258, 3810071, 448564746, 10709568,
      2695936, 0, 0, 0},
     0.074113668462715346},
    {"mcf", false, ReplPolicy::DeadBlock, false,
     {171429, 300000, 900000, 171086, 162524, 343, 83613, 9427, 10710016,
      4857472, 0, 0, 0},
     {12142029, 900000, 300000, 171086, 162523, 343, 13, 48459, 0, 2968056,
      922630, 496791567, 2800323, 1237228, 3804626, 448509956, 10711360,
      2694528, 0, 0, 0},
     0.074122702227115422},
    {"mcf", true, ReplPolicy::LRU, false,
     {171429, 300000, 900000, 171086, 162689, 343, 83925, 9427, 10708224,
      4881344, 0, 0, 0},
     {12143509, 900000, 300000, 171086, 162689, 343, 13, 48458, 0, 2970240,
      922621, 496831347, 2761731, 1239258, 3810071, 448564746, 10709568,
      2695936, 0, 0, 0},
     0.074113668462715346},
    {"mcf", true, ReplPolicy::DeadBlock, false,
     {171429, 300000, 900000, 171086, 162524, 343, 83613, 9427, 10710016,
      4857472, 0, 0, 0},
     {12142029, 900000, 300000, 171086, 162523, 343, 13, 48459, 0, 2968056,
      922630, 496791567, 2800323, 1237228, 3804626, 448509956, 10711360,
      2694528, 0, 0, 0},
     0.074122702227115422},
    {"em3d", false, ReplPolicy::LRU, false,
     {259689, 300000, 900000, 257649, 194550, 10310, 58019, 16567, 12651968,
      3435904, 0, 0, 0},
     {38221860, 900000, 300000, 257654, 194550, 10305, 10152, 33038, 0,
      3042792, 1233943, 1057504841, 15482510, 237097, 736274, 1044148384,
      12652224, 1864640, 0, 0, 0},
     0.023546734774288848},
    {"em3d", false, ReplPolicy::DeadBlock, false,
     {259689, 300000, 900000, 257649, 195456, 10310, 57781, 16567, 12746112,
      3419840, 0, 0, 0},
     {38219059, 900000, 300000, 257670, 195459, 10285, 10144, 33032, 0,
      3058908, 1234132, 1057761098, 15199106, 241147, 748175, 1044173419,
      12747520, 1864320, 0, 0, 0},
     0.023548460468375217},
    {"em3d", true, ReplPolicy::LRU, false,
     {259689, 300000, 900000, 257649, 194550, 10310, 58019, 16567, 12651968,
      3435904, 0, 0, 0},
     {38221860, 900000, 300000, 257654, 194550, 10305, 10152, 33038, 0,
      3042792, 1233943, 1057504841, 15482510, 237097, 736274, 1044148384,
      12652224, 1864640, 0, 0, 0},
     0.023546734774288848},
    {"em3d", true, ReplPolicy::DeadBlock, false,
     {259689, 300000, 900000, 257649, 195456, 10310, 57781, 16567, 12746112,
      3419840, 0, 0, 0},
     {38219059, 900000, 300000, 257670, 195459, 10285, 10144, 33032, 0,
      3058908, 1234132, 1057761098, 15199106, 241147, 748175, 1044173419,
      12747520, 1864320, 0, 0, 0},
     0.023548460468375217},
    {"gcc", false, ReplPolicy::LRU, false,
     {155845, 300000, 1800000, 141042, 21569, 15988, 28752, 25866, 1673536,
      249984, 0, 0, 0},
     {1421495, 1800000, 300000, 141230, 21560, 15806, 5644, 28099, 0, 389076,
      746519, 50296168, 27463692, 24909, 299010, 29061468, 1687936, 220864, 0,
      0, 0},
     1.2662724807333126},
    {"gcc", false, ReplPolicy::DeadBlock, false,
     {155845, 300000, 1800000, 141042, 20943, 15988, 28692, 25866, 1633152,
      254528, 0, 0, 0},
     {1407623, 1800000, 300000, 141237, 20933, 15802, 5650, 28082, 0, 382932,
      746505, 50311668, 27234392, 24652, 297677, 28803845, 1646208, 230336, 0,
      0, 0},
     1.2787514838845344},
    {"gcc", true, ReplPolicy::LRU, false,
     {155845, 300000, 1800000, 141042, 21569, 15988, 28752, 25866, 1673536,
      249984, 0, 0, 173568},
     {1431325, 1800000, 300000, 141230, 21560, 15806, 5645, 28099, 0, 413484,
      772406, 50317179, 30962453, 24643, 1331730, 29264137, 1687936, 220864, 0,
      0, 173568},
     1.2575760222171763},
    {"gcc", true, ReplPolicy::DeadBlock, false,
     {155845, 300000, 1800000, 141042, 20943, 15988, 28692, 25866, 1633152,
      254528, 0, 0, 176064},
     {1418057, 1800000, 300000, 141237, 20933, 15802, 5652, 28082, 0, 407799,
      772422, 50334268, 30750990, 24403, 1412905, 29018415, 1646208, 230336, 0,
      0, 176832},
     1.2693424876433035},
    {"gcc", false, ReplPolicy::LRU, true,
     {155845, 300000, 1800000, 141042, 120610, 15988, 53472, 25866, 9450304,
      3024896, 0, 0, 0},
     {1881990, 1800000, 300000, 142173, 120633, 14856, 5177, 27976, 0, 2382816,
      779486, 83402719, 6155069, 336304, 6763559, 38725472, 9542080, 1603008,
      0, 0, 0},
     0.95643441251016215},
    {"gcc", false, ReplPolicy::DeadBlock, true,
     {155845, 300000, 1800000, 141042, 120562, 15988, 53446, 25866, 9449088,
      3022784, 0, 0, 0},
     {1881690, 1800000, 300000, 142173, 120580, 14856, 5177, 27975, 0, 2382252,
      779473, 83392728, 6162781, 336240, 6754218, 38719347, 9540800, 1603712,
      0, 0, 0},
     0.95658689794812113},
    {"gcc", true, ReplPolicy::LRU, true,
     {155845, 300000, 1800000, 141042, 120610, 15988, 53472, 25866, 9450304,
      3024896, 0, 0, 523712},
     {1934854, 1800000, 300000, 142173, 120633, 14856, 5177, 27976, 0, 2456679,
      805379, 83396984, 10203277, 336639, 12846864, 39816868, 9542080, 1603008,
      0, 0, 525248},
     0.93030275152543807},
    {"gcc", true, ReplPolicy::DeadBlock, true,
     {155845, 300000, 1800000, 141042, 120562, 15988, 53446, 25866, 9449088,
      3022784, 0, 0, 521280},
     {1934261, 1800000, 300000, 142172, 120580, 14857, 5178, 27975, 0, 2455836,
      805366, 83388516, 10210274, 336458, 12819936, 39804044, 9540736, 1603712,
      0, 0, 523264},
     0.93058796098354879},
};

/** Store-heavy scan whose footprint (2 MB) overflows the 1 MB L2. */
std::unique_ptr<TraceSource>
buildStoreScan()
{
    ScanArray a;
    a.base = 0x5000000;
    a.blocks = 32768;
    a.accessesPerBlock = 2;
    a.stores = true;
    a.pc = 0x5000;
    return std::make_unique<StridedScanSource>(
        std::vector<ScanArray>{a}, /*non_mem_gap=*/3, "golden.store");
}

bool
printMode()
{
    return std::getenv("LTC_GOLDEN_PRINT") != nullptr;
}

/** Record count and running FNV-1a-64 digest of a record stream. */
struct RecordDigest
{
    std::uint64_t records = 0;
    std::uint64_t digest = 14695981039346656037ULL;

    /** Fold in @p r's fields, little-endian. */
    void
    add(const MemRef &r)
    {
        unsigned char b[8 + 8 + 1 + 4 + 1];
        for (int i = 0; i < 8; i++) {
            b[i] = static_cast<unsigned char>(r.pc >> (8 * i));
            b[8 + i] = static_cast<unsigned char>(r.addr >> (8 * i));
        }
        b[16] = r.op == MemOp::Store ? 1 : 0;
        for (int i = 0; i < 4; i++)
            b[17 + i] = static_cast<unsigned char>(r.nonMemGap >> (8 * i));
        b[21] = r.dependsOnPrev ? 1 : 0;
        digest = fnv1a64(b, sizeof(b), digest);
        records++;
    }
};

RecordDigest
digestOf(const std::vector<MemRef> &refs)
{
    RecordDigest d;
    for (const MemRef &r : refs)
        d.add(r);
    return d;
}

/** Read @p path through StreamingTraceReader::fill, @p batch at a time. */
RecordDigest
digestByFill(const std::string &path, std::size_t batch)
{
    StreamingTraceReader reader(path);
    EXPECT_TRUE(reader.ok()) << traceErrcName(reader.error());
    std::vector<MemRef> buf(batch);
    RecordDigest d;
    std::size_t got;
    do {
        got = reader.fill(buf);
        for (std::size_t i = 0; i < got; i++)
            d.add(buf[i]);
    } while (got == batch);
    EXPECT_TRUE(reader.ok()) << traceErrcName(reader.error());
    return d;
}

/** readTraceFile(@p path), which must succeed. */
std::vector<MemRef>
readOk(const std::string &path)
{
    TraceErrc err = TraceErrc::Ok;
    std::vector<MemRef> refs = readTraceFile(path, &err);
    EXPECT_EQ(err, TraceErrc::Ok) << traceErrcName(err);
    return refs;
}

CoverageStats
runTraceEngine(const std::string &file)
{
    FileTrace trace(dataPath(file));
    auto pred = makePredictor("lt-cords", paperHierarchy());
    return runWithOpportunity(paperHierarchy(), pred.get(), trace,
                              trace.size());
}

TimingStats
runTimingEngine(const std::string &file)
{
    FileTrace trace(dataPath(file));
    auto pred = makePredictor("lt-cords", paperHierarchy(),
                              /*model_stream_latency=*/true);
    TimingSim sim(paperTiming(), pred.get());
    sim.run(trace, trace.size());
    return sim.stats();
}

/** Scoped environment override for LTC_TRACE_DIR. */
class TraceDirGuard
{
  public:
    explicit TraceDirGuard(const std::string &dir)
    {
        setenv("LTC_TRACE_DIR", dir.c_str(), 1);
    }
    ~TraceDirGuard() { unsetenv("LTC_TRACE_DIR"); }
};

// ------------------------------------------------------------ tests

TEST(GoldenFixtures, Regenerate)
{
    if (!std::getenv("LTC_GOLDEN_REGEN"))
        GTEST_SKIP() << "set LTC_GOLDEN_REGEN=1 to rewrite fixtures";
    for (const FixtureSpec &spec : kFixtures) {
        auto src = spec.build();
        std::uint64_t written = 0;
        ASSERT_EQ(captureToFile(*src, dataPath(spec.file), spec.refs,
                                &written, kFixtureChunk),
                  TraceErrc::Ok);
        ASSERT_EQ(written, spec.refs) << spec.file;
    }
}

TEST(GoldenFixtures, ReplayMatchesBuilders)
{
    for (const FixtureSpec &spec : kFixtures) {
        SCOPED_TRACE(spec.file);
        FileTrace trace(dataPath(spec.file));
        ASSERT_EQ(trace.size(), spec.refs);
        auto src = spec.build();
        MemRef want, got;
        for (std::uint64_t i = 0; i < spec.refs; i++) {
            ASSERT_TRUE(src->next(want)) << "record " << i;
            ASSERT_TRUE(trace.next(got)) << "record " << i;
            ASSERT_TRUE(got == want) << "record " << i;
        }
        EXPECT_FALSE(trace.next(got)); // fixture holds nothing more
    }
}

TEST(GoldenFixtures, CompressionBeatsV1ByAtLeast4x)
{
    for (const FixtureSpec &spec : kFixtures) {
        SCOPED_TRACE(spec.file);
        TraceFileInfo info;
        ASSERT_EQ(probeTraceFile(dataPath(spec.file), info),
                  TraceErrc::Ok);
        EXPECT_EQ(info.version, 2u);
        EXPECT_EQ(info.records, spec.refs);
        EXPECT_GE(info.compressionVsV1(), 4.0)
            << "v2 must stay >=4x smaller than the v1 encoding ("
            << info.fileBytes << " vs " << info.v1EquivalentBytes()
            << " bytes)";
    }
}

TEST(GoldenFixtures, ContainerReadsMatchExactly)
{
    ASSERT_EQ(std::size(kContainerGolden), std::size(kFixtures));
    const std::string scratch = ::testing::TempDir() + "/golden_container";
    for (std::size_t i = 0; i < std::size(kFixtures); i++) {
        const ContainerGolden &g = kContainerGolden[i];
        SCOPED_TRACE(kFixtures[i].file);
        const std::string path = dataPath(kFixtures[i].file);

        TraceFileInfo walked, header;
        ASSERT_EQ(probeTraceFile(path, walked), TraceErrc::Ok);
        ASSERT_EQ(probeTraceHeader(path, header), TraceErrc::Ok);

        // Every way of reading the container yields the same records.
        const std::vector<MemRef> refs = readOk(path);
        ASSERT_EQ(convertTraceFile(path, scratch + ".ltct"),
                  TraceErrc::Ok);
        writeTraceFileV1(scratch + ".v1", refs);
        const std::vector<std::pair<const char *, RecordDigest>> reads = {
            {"fill x1", digestByFill(path, 1)},
            {"fill x256", digestByFill(path, 256)},
            {"fill x8192", digestByFill(path, kFixtureChunk)},
            {"readTraceFile", digestOf(refs)},
            {"converted", digestOf(readOk(scratch + ".ltct"))},
            {"v1", digestOf(readOk(scratch + ".v1"))},
        };
        std::remove((scratch + ".ltct").c_str());
        std::remove((scratch + ".v1").c_str());

        if (printMode()) {
            std::printf("    {\"%s\", %u, %llu, %u, %llu, %llu, %llu, "
                        "0x%016llxULL},\n",
                        kFixtures[i].file, walked.version,
                        static_cast<unsigned long long>(walked.records),
                        header.chunkRecords,
                        static_cast<unsigned long long>(walked.chunks),
                        static_cast<unsigned long long>(
                            walked.payloadBytes),
                        static_cast<unsigned long long>(walked.fileBytes),
                        static_cast<unsigned long long>(
                            reads.front().second.digest));
            continue;
        }
        EXPECT_EQ(g.file, std::string(kFixtures[i].file));
        EXPECT_EQ(walked.version, g.version);
        EXPECT_EQ(walked.records, g.records);
        EXPECT_EQ(walked.chunkRecords, g.chunkRecords);
        EXPECT_EQ(walked.chunks, g.chunks);
        EXPECT_EQ(walked.payloadBytes, g.payloadBytes);
        EXPECT_EQ(walked.fileBytes, g.fileBytes);
        // The header probe reads no chunk.
        EXPECT_EQ(header.version, g.version);
        EXPECT_EQ(header.records, g.records);
        EXPECT_EQ(header.chunkRecords, g.chunkRecords);
        EXPECT_EQ(header.chunks, 0u);
        EXPECT_EQ(header.payloadBytes, 0u);
        EXPECT_EQ(header.fileBytes, g.fileBytes);
        for (const auto &[how, d] : reads) {
            SCOPED_TRACE(how);
            EXPECT_EQ(d.records, g.records);
            EXPECT_EQ(d.digest, g.digest);
        }
    }
}

TEST(GoldenTraceEngine, MetricsMatchExactly)
{
    for (const TraceGolden &g : kTraceGolden) {
        SCOPED_TRACE(g.file);
        const CoverageStats s = runTraceEngine(g.file);
        if (printMode()) {
            std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu},\n",
                        g.file,
                        static_cast<unsigned long long>(s.opportunity),
                        static_cast<unsigned long long>(s.l1Misses),
                        static_cast<unsigned long long>(s.correct),
                        static_cast<unsigned long long>(s.early),
                        static_cast<unsigned long long>(
                            s.uselessPrefetches));
            continue;
        }
        EXPECT_EQ(s.opportunity, g.opportunity);
        EXPECT_EQ(s.l1Misses, g.l1Misses);
        EXPECT_EQ(s.correct, g.correct);
        EXPECT_EQ(s.early, g.early);
        EXPECT_EQ(s.uselessPrefetches, g.useless);
    }
}

TEST(GoldenTraceEngine, GhbMetricsMatchExactly)
{
    for (const GhbGolden &g : kGhbGolden) {
        SCOPED_TRACE(g.file);
        FileTrace trace(dataPath(g.file));
        auto pred = makePredictor("ghb", paperHierarchy());
        TraceEngine engine(paperHierarchy(), pred.get());
        engine.run(trace, trace.size());
        const CoverageStats &s = engine.stats();
        StatSet ghb("ghb");
        pred->exportStats(ghb);
        const auto matches =
            static_cast<std::uint64_t>(ghb.get("delta_matches"));
        const auto issued =
            static_cast<std::uint64_t>(ghb.get("prefetches_issued"));
        if (printMode()) {
            std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu},\n",
                        g.file,
                        static_cast<unsigned long long>(s.l1Misses),
                        static_cast<unsigned long long>(s.l2Misses),
                        static_cast<unsigned long long>(
                            s.uselessPrefetches),
                        static_cast<unsigned long long>(matches),
                        static_cast<unsigned long long>(issued));
            continue;
        }
        EXPECT_EQ(s.l1Misses, g.l1Misses);
        EXPECT_EQ(s.l2Misses, g.l2Misses);
        EXPECT_EQ(s.uselessPrefetches, g.useless);
        EXPECT_EQ(matches, g.deltaMatches);
        EXPECT_EQ(issued, g.issued);
    }
}

TEST(GoldenTraceEngine, LongRunLtCordsMatchesExactly)
{
    for (const LongRunGolden &g : kLongRunGolden) {
        SCOPED_TRACE(g.workload);
        auto src = makeWorkload(g.workload);
        auto pred = makePredictor("lt-cords", paperHierarchy());
        TraceEngine engine(paperHierarchy(), pred.get());
        engine.run(*src, g.refs);
        const CoverageStats &s = engine.stats();
        if (printMode()) {
            std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu},\n",
                        g.workload,
                        static_cast<unsigned long long>(g.refs),
                        static_cast<unsigned long long>(s.l1Misses),
                        static_cast<unsigned long long>(s.correct),
                        static_cast<unsigned long long>(s.early),
                        static_cast<unsigned long long>(
                            s.uselessPrefetches));
            continue;
        }
        EXPECT_EQ(s.accesses, g.refs);
        EXPECT_EQ(s.l1Misses, g.l1Misses);
        EXPECT_EQ(s.correct, g.correct);
        EXPECT_EQ(s.early, g.early);
        EXPECT_EQ(s.uselessPrefetches, g.useless);
    }
}

TEST(GoldenTimingEngine, MetricsMatchExactly)
{
    for (const TimingGolden &g : kTimingGolden) {
        SCOPED_TRACE(g.file);
        const TimingStats s = runTimingEngine(g.file);
        if (printMode()) {
            std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu, "
                        "%llu, %llu, %llu,\n     %llu, %llu, %llu, "
                        "%llu},\n",
                        g.file,
                        static_cast<unsigned long long>(s.cycles),
                        static_cast<unsigned long long>(
                            s.instructions),
                        static_cast<unsigned long long>(s.l1Misses),
                        static_cast<unsigned long long>(s.correct),
                        static_cast<unsigned long long>(s.l2Misses),
                        static_cast<unsigned long long>(s.partial),
                        static_cast<unsigned long long>(s.useless),
                        static_cast<unsigned long long>(s.memBusBusy),
                        static_cast<unsigned long long>(
                            s.traffic.bytes(Traffic::BaseData)),
                        static_cast<unsigned long long>(
                            s.traffic.bytes(
                                Traffic::IncorrectPrefetch)),
                        static_cast<unsigned long long>(
                            s.traffic.bytes(Traffic::SequenceCreate)),
                        static_cast<unsigned long long>(
                            s.traffic.bytes(Traffic::SequenceFetch)));
            continue;
        }
        EXPECT_EQ(s.cycles, g.cycles);
        EXPECT_EQ(s.instructions, g.instructions);
        EXPECT_EQ(s.l1Misses, g.l1Misses);
        EXPECT_EQ(s.correct, g.correct);
        EXPECT_EQ(s.l2Misses, g.l2Misses);
        EXPECT_EQ(s.partial, g.partial);
        EXPECT_EQ(s.useless, g.useless);
        EXPECT_EQ(s.memBusBusy, g.memBusBusy);
        EXPECT_EQ(s.traffic.bytes(Traffic::BaseData), g.baseBytes);
        EXPECT_EQ(s.traffic.bytes(Traffic::IncorrectPrefetch),
                  g.wrongBytes);
        EXPECT_EQ(s.traffic.bytes(Traffic::SequenceCreate),
                  g.createBytes);
        EXPECT_EQ(s.traffic.bytes(Traffic::SequenceFetch),
                  g.fetchBytes);
    }
}

TEST(GoldenTimingEngine, BaselineMetricsMatchExactly)
{
    for (const TimingBaselineGolden &g : kTimingBaselineGolden) {
        SCOPED_TRACE(g.file);
        FileTrace trace(dataPath(g.file));
        TimingSim sim(paperTiming(), nullptr);
        sim.run(trace, trace.size());
        const TimingStats s = sim.stats();
        if (printMode()) {
            std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu,\n"
                        "     %llu},\n",
                        g.file,
                        static_cast<unsigned long long>(s.cycles),
                        static_cast<unsigned long long>(s.l1Misses),
                        static_cast<unsigned long long>(s.l2Misses),
                        static_cast<unsigned long long>(
                            s.missLatencyTotal),
                        static_cast<unsigned long long>(s.memBusBusy),
                        static_cast<unsigned long long>(
                            s.traffic.bytes(Traffic::BaseData)));
            continue;
        }
        EXPECT_EQ(s.cycles, g.cycles);
        EXPECT_EQ(s.l1Misses, g.l1Misses);
        EXPECT_EQ(s.l2Misses, g.l2Misses);
        EXPECT_EQ(s.missLatencyTotal, g.missLatencyTotal);
        EXPECT_EQ(s.memBusBusy, g.memBusBusy);
        EXPECT_EQ(s.traffic.bytes(Traffic::BaseData), g.baseBytes);
        EXPECT_EQ(s.accesses, trace.size());
    }
}

TEST(GoldenWriteback, OnModeMetricsMatchExactly)
{
    const std::uint64_t refs = 2 * 32768;

    HierarchyConfig hc = paperHierarchy();
    hc.modelWritebacks = true;
    auto src_t = buildStoreScan();
    auto pred_t = makePredictor("lt-cords", hc);
    const CoverageStats ts =
        runWithOpportunity(hc, pred_t.get(), *src_t, refs);

    TimingConfig tc = paperTiming();
    tc.hier.modelWritebacks = true;
    auto src_c = buildStoreScan();
    auto pred_c = makePredictor("lt-cords", tc.hier,
                                /*model_stream_latency=*/true);
    TimingSim sim(tc, pred_c.get());
    sim.run(*src_c, refs);
    const TimingStats cs = sim.stats();

    if (printMode()) {
        std::printf("    %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                    "%llu,\n",
                    static_cast<unsigned long long>(ts.opportunity),
                    static_cast<unsigned long long>(ts.l1Misses),
                    static_cast<unsigned long long>(ts.correct),
                    static_cast<unsigned long long>(
                        ts.traffic.bytes(Traffic::Writeback)),
                    static_cast<unsigned long long>(cs.cycles),
                    static_cast<unsigned long long>(cs.l2Misses),
                    static_cast<unsigned long long>(
                        cs.traffic.bytes(Traffic::Writeback)),
                    static_cast<unsigned long long>(cs.memBusBusy));
        return;
    }
    const WritebackGolden &g = kWritebackGolden;
    EXPECT_GT(ts.traffic.bytes(Traffic::Writeback), 0u);
    EXPECT_GT(cs.traffic.bytes(Traffic::Writeback), 0u);
    EXPECT_EQ(ts.opportunity, g.traceOpportunity);
    EXPECT_EQ(ts.l1Misses, g.traceL1Misses);
    EXPECT_EQ(ts.correct, g.traceCorrect);
    EXPECT_EQ(ts.traffic.bytes(Traffic::Writeback), g.traceWbBytes);
    EXPECT_EQ(cs.cycles, g.timingCycles);
    EXPECT_EQ(cs.l2Misses, g.timingL2Misses);
    EXPECT_EQ(cs.traffic.bytes(Traffic::Writeback), g.timingWbBytes);
    EXPECT_EQ(cs.memBusBusy, g.timingMemBusBusy);
}

TEST(GoldenWriteback, PredictorlessTraceMetricsMatchExactly)
{
    for (const BaselineWritebackGolden &g : kBaselineWritebackGolden) {
        SCOPED_TRACE(g.workload);
        HierarchyConfig hc = paperHierarchy();
        hc.modelWritebacks = true;
        auto src = makeWorkload(g.workload);
        TraceEngine engine(hc, nullptr);
        engine.run(*src, g.refs);
        const CoverageStats &s = engine.stats();
        if (printMode()) {
            std::printf("    {\"%s\", %llu, %llu, %llu, %llu, %llu},\n",
                        g.workload,
                        static_cast<unsigned long long>(g.refs),
                        static_cast<unsigned long long>(s.l1Misses),
                        static_cast<unsigned long long>(s.l2Misses),
                        static_cast<unsigned long long>(
                            s.traffic.bytes(Traffic::Writeback)),
                        static_cast<unsigned long long>(
                            s.traffic.bytes(Traffic::BaseData)));
            continue;
        }
        EXPECT_GT(s.traffic.bytes(Traffic::Writeback), 0u);
        EXPECT_EQ(s.accesses, g.refs);
        EXPECT_EQ(s.l1Misses, g.l1Misses);
        EXPECT_EQ(s.l2Misses, g.l2Misses);
        EXPECT_EQ(s.traffic.bytes(Traffic::Writeback), g.wbBytes);
        EXPECT_EQ(s.traffic.bytes(Traffic::BaseData), g.baseBytes);
    }
}

TEST(AblationPolicyGolden, BaselineMissCountsMatchExactly)
{
    for (const PolicyGolden &g : kPolicyGolden) {
        SCOPED_TRACE(replPolicyName(g.policy));
        HierarchyConfig hc = paperHierarchy();
        hc.l1d.policy = g.policy;
        hc.l2.policy = g.policy;
        FileTrace trace(dataPath("interleave.ltct"));
        TraceEngine engine(hc, nullptr);
        engine.run(trace, trace.size());
        const CoverageStats &s = engine.stats();
        if (printMode()) {
            std::printf("    {ReplPolicy::%s, %llu, %llu},\n",
                        replPolicyName(g.policy),
                        static_cast<unsigned long long>(s.l1Misses),
                        static_cast<unsigned long long>(s.l2Misses));
            continue;
        }
        EXPECT_EQ(s.l1Misses, g.l1Misses);
        EXPECT_EQ(s.l2Misses, g.l2Misses);
    }
}

/** Print @p f as a braced initializer wrapped within 79 columns. */
template <std::size_t N>
void
printFields(const std::array<std::uint64_t, N> &f)
{
    std::string line = "     {";
    for (std::size_t i = 0; i < N; i++) {
        const std::string item = std::to_string(f[i]) +
            (i + 1 < N ? "," : "},");
        if (line.size() + 1 + item.size() > 79) {
            std::printf("%s\n", line.c_str());
            line = "      " + item;
        } else {
            line += (line.back() == '{' ? "" : " ") + item;
        }
    }
    std::printf("%s\n", line.c_str());
}

TEST(GoldenMixedPrefetch, BothEnginesMatchExactly)
{
    constexpr std::uint64_t refs = 300'000;
    for (const MixedGolden &g : kMixedGolden) {
        SCOPED_TRACE(std::string(g.workload) +
                     (g.writebacks ? ", writebacks" : "") + ", " +
                     replPolicyName(g.policy) +
                     (g.smallL2 ? ", small L2" : ""));
        HierarchyConfig hc = paperHierarchy();
        hc.modelWritebacks = g.writebacks;
        hc.l1d.policy = g.policy;
        hc.l2.policy = g.policy;
        if (g.smallL2) {
            hc.l2.sizeBytes = 128 * 1024;
            hc.l2.assoc = 4;
        }

        auto src_t = makeWorkload(g.workload);
        MixedPrefetcher pred_t(7, hc.l1d.lineBytes);
        const CoverageStats ts =
            runWithOpportunity(hc, &pred_t, *src_t, refs);

        TimingConfig tc = paperTiming();
        tc.hier = hc;
        auto src_c = makeWorkload(g.workload);
        MixedPrefetcher pred_c(7, hc.l1d.lineBytes);
        TimingSim sim(tc, &pred_c);
        sim.run(*src_c, refs);
        const TimingStats cs = sim.stats();

        const auto trace = mixedTraceFields(ts);
        const auto timing = mixedTimingFields(cs);
        if (printMode()) {
            std::printf("    {\"%s\", %s, ReplPolicy::%s, %s,\n",
                        g.workload, g.writebacks ? "true" : "false",
                        replPolicyName(g.policy),
                        g.smallL2 ? "true" : "false");
            printFields(trace);
            printFields(timing);
            std::printf("     %.17g},\n", cs.ipc);
            continue;
        }
        // Both engines actually mixed the request kinds.
        EXPECT_GT(ts.uselessPrefetches, 0u);
        EXPECT_GT(ts.correct, 0u);
        EXPECT_GT(ts.traffic.bytes(Traffic::IncorrectPrefetch), 0u);
        EXPECT_GT(cs.useless, 0u);
        for (std::size_t i = 0; i < trace.size(); i++)
            EXPECT_EQ(trace[i], g.trace[i]) << "trace field " << i;
        for (std::size_t i = 0; i < timing.size(); i++)
            EXPECT_EQ(timing[i], g.timing[i]) << "timing field " << i;
        EXPECT_EQ(cs.ipc, g.ipc);
    }
}

TEST(GoldenMultiTenant, Fig11ScaleMetricsMatchExactly)
{
    for (const Fig11ScaleGolden &g : kFig11ScaleGolden) {
        SCOPED_TRACE(std::to_string(g.tenants) + " tenants, " +
                     std::to_string(g.partitions) + " partitions");

        MultiProgConfig cfg;
        cfg.quantumRefs.assign(g.tenants, 4000);
        cfg.switches = static_cast<std::uint64_t>(g.tenants) * 4;
        cfg.churnSeed = g.churnSeed;

        std::vector<std::unique_ptr<TraceSource>> apps;
        for (std::uint32_t i = 0; i < g.tenants; i++) {
            PointerChaseParams p;
            p.nodes = 1024 + (i & 3) * 512;
            p.seed = i + 1;
            p.mutateEveryIters = 2;
            p.mutateFraction = 0.05;
            apps.push_back(std::make_unique<PointerChaseSource>(p));
        }

        LtcordsConfig lc = paperLtcords(cfg.hier, false);
        lc.sigCachePartitions = g.partitions;
        LtCords pred(lc);

        const auto stats =
            runMultiProg(cfg, &pred, std::move(apps));
        std::uint64_t opportunity = 0;
        std::uint64_t l1_misses = 0;
        std::uint64_t correct = 0;
        for (const CoverageStats &s : stats) {
            opportunity += s.opportunity;
            l1_misses += s.l1Misses;
            correct += s.correct;
        }
        const std::uint64_t conflicts =
            pred.storage().crossTenantConflicts();

        if (printMode()) {
            std::printf("    {%u, %u, %llu, %llu, %llu, %llu, "
                        "%llu},\n",
                        g.tenants, g.partitions,
                        static_cast<unsigned long long>(g.churnSeed),
                        static_cast<unsigned long long>(opportunity),
                        static_cast<unsigned long long>(l1_misses),
                        static_cast<unsigned long long>(correct),
                        static_cast<unsigned long long>(conflicts));
            continue;
        }
        EXPECT_EQ(opportunity, g.opportunity);
        EXPECT_EQ(l1_misses, g.l1Misses);
        EXPECT_EQ(correct, g.correct);
        EXPECT_EQ(conflicts, g.crossConflicts);
    }
}

TEST(GoldenRunnerSweep, SetTraceDirOverridesEnvironment)
{
    // The programmatic hook behind a bench's --trace-dir flag.
    ASSERT_FALSE(isWorkload("trace:strided_scan"));
    setTraceDir(LTC_TEST_DATA_DIR);
    EXPECT_TRUE(isWorkload("trace:strided_scan"));
    setTraceDir("");
    EXPECT_FALSE(isWorkload("trace:strided_scan"));
}

/**
 * The acceptance path: fixtures discovered via LTC_TRACE_DIR appear
 * as registry workloads, sweep through the ExperimentRunner, and the
 * export is byte-identical at 1 and 8 worker threads - with metrics
 * agreeing exactly with the direct golden runs above.
 */
TEST(GoldenRunnerSweep, FileWorkloadsAreByteIdenticalAcrossJobs)
{
    TraceDirGuard guard(LTC_TEST_DATA_DIR);

    std::vector<std::string> trace_names;
    for (const std::string &name : workloadNames())
        if (name.rfind("trace:", 0) == 0)
            trace_names.push_back(name);
    ASSERT_EQ(trace_names.size(), std::size(kFixtures));
    ASSERT_TRUE(isWorkload("trace:strided_scan"));

    const auto cells = ExperimentRunner::cells(trace_names);
    auto sweep = [&](unsigned jobs) {
        return ExperimentRunner(jobs).run(
            cells, [](const RunCell &cell, RunResult &r) {
                auto src = makeWorkload(cell.workload);
                auto pred =
                    makePredictor("lt-cords", paperHierarchy());
                auto s = runWithOpportunity(
                    paperHierarchy(), pred.get(), *src,
                    suggestedRefs(cell.workload));
                r.set("opportunity",
                      static_cast<double>(s.opportunity));
                r.set("l1_misses", static_cast<double>(s.l1Misses));
                r.set("correct", static_cast<double>(s.correct));
                r.set("coverage", s.coverage());
            });
    };

    const auto serial = sweep(1);
    const auto parallel = sweep(8);
    EXPECT_EQ(resultsToJson(serial), resultsToJson(parallel));

    // The sweep's numbers are the same goldens as the direct runs.
    if (!printMode()) {
        for (std::size_t i = 0; i < serial.size(); i++) {
            SCOPED_TRACE(serial[i].cell.workload);
            const std::string stem =
                serial[i].cell.workload.substr(6) + ".ltct";
            for (const TraceGolden &g : kTraceGolden) {
                if (stem != g.file)
                    continue;
                EXPECT_EQ(serial[i].get("opportunity"),
                          static_cast<double>(g.opportunity));
                EXPECT_EQ(serial[i].get("correct"),
                          static_cast<double>(g.correct));
            }
        }
    }
}

} // namespace
} // namespace ltc
