/**
 * @file
 * Microbenchmarks of the hardware-structure models: per-operation
 * cost of the signature cache, history table, L1D model, DBCP
 * table, GHB and the full LT-cords observe path. These bound the
 * simulator's own throughput (host ns/op, not simulated cycles).
 *
 * Self-timed with <chrono> (no external benchmark library): each
 * micro calibrates its iteration count until a run lasts at least
 * ~50ms, then reports ns/op. Cells run on a single worker thread so
 * timings are not distorted by sibling benchmarks; the JSON/CSV
 * export is therefore the one bench output that is inherently
 * host- and run-dependent.
 */

#include <chrono>
#include <functional>
#include <vector>

#include "bench_common.hh"
#include "cache/cache.hh"
#include "cache/set_scan.hh"
#include "core/ltcords.hh"
#include "core/signature_cache.hh"
#include "pred/dbcp.hh"
#include "pred/ghb.hh"
#include "pred/history_table.hh"
#include "sim/experiment.hh"
#include "sim/trace_engine.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"
#include "util/random.hh"

namespace
{

using namespace ltc;

/** Keep results observable so the loop bodies are not elided. */
volatile std::uint64_t g_blackhole = 0;

// A plain volatile store: unlike a read-modify-write it adds no
// loop-carried dependency, so it does not inflate ns/op for the
// cheapest structures.
inline void
consume(std::uint64_t v)
{
    g_blackhole = v;
}

/**
 * Measure @p op (which runs @p batch iterations per call): grow the
 * batch count until a timed run lasts >= ~50ms, then report ns/op.
 */
double
nsPerOp(const std::function<void(std::uint64_t)> &op)
{
    using clock = std::chrono::steady_clock;
    constexpr double kMinSeconds = 0.05;
    std::uint64_t iters = 1024;
    for (;;) {
        const auto start = clock::now();
        op(iters);
        const double elapsed =
            std::chrono::duration<double>(clock::now() - start)
                .count();
        if (elapsed >= kMinSeconds)
            return elapsed * 1e9 / static_cast<double>(iters);
        // Aim past the threshold with headroom, at least doubling.
        const double target = elapsed > 0.0
            ? static_cast<double>(iters) * kMinSeconds * 1.4 / elapsed
            : static_cast<double>(iters) * 2.0;
        iters = std::max(iters * 2,
                         static_cast<std::uint64_t>(target));
    }
}

double
cacheAccess()
{
    Cache cache(CacheConfig::l1d());
    Addr addr = 0;
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; i++) {
            addr = (addr + 64 * 7) & ((1 << 24) - 1);
            consume(static_cast<std::uint64_t>(
                cache.access(addr, MemOp::Load).hit));
        }
    });
}

/**
 * One 8-way set of packed tag words, scanned with the dispatched
 * kernel (AVX2 when compiled in) vs. the portable unrolled
 * loop — the per-lookup work behind every cache access. With
 * -DLTC_SIMD=OFF (or no AVX2) the two cells coincide.
 */
template <std::uint32_t (*Scan)(const std::uint64_t *, std::uint64_t,
                                std::uint64_t)>
double
setScan8()
{
    alignas(64) std::uint64_t tags[8];
    for (std::uint64_t w = 0; w < 8; w++)
        tags[w] = (w << 6) | 0x01;
    const std::uint64_t select = ~std::uint64_t{0x3e};
    std::uint64_t state = 1;
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; i++) {
            state = mix64(state);
            // Tags 0..7 are resident; want 0..15, so half the probes
            // match (one bit) and half miss — the lookup mix.
            const std::uint64_t want = ((state & 15) << 6) | 0x01;
            consume(Scan(tags, select, want));
        }
    });
}

double
setScanDispatched()
{
    return setScan8<&maskedEqBits<8>>();
}

double
setScanPortable()
{
    return setScan8<&maskedEqBitsPortable<8>>();
}

double
sigCacheLookup()
{
    SignatureCache sc(32 * 1024, 2);
    Rng rng(2);
    for (int i = 0; i < 16 * 1024; i++) {
        SigCacheEntry e;
        e.key = rng.next();
        sc.insert(e);
    }
    std::uint64_t key = 12345;
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; i++) {
            key = mix64(key);
            consume(sc.lookup(key) != nullptr);
        }
    });
}

double
sigCacheInsert()
{
    SignatureCache sc(32 * 1024, 2);
    std::uint64_t key = 1;
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; i++) {
            key = mix64(key);
            SigCacheEntry e;
            e.key = key;
            sc.insert(e);
            consume(key);
        }
    });
}

double
historyTableUpdate()
{
    HistoryTable ht(512, 64);
    std::uint32_t set = 0;
    Addr pc = 0x1000;
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; i++) {
            set = (set + 1) & 511;
            pc += 4;
            ht.recordAccess(set, pc);
            consume(ht.signatureKey(set));
        }
    });
}

double
dbcpObserve()
{
    DbcpConfig cfg;
    cfg.tableEntries = DbcpConfig::entriesForBytes(1024 * 1024);
    Dbcp dbcp(cfg);
    CacheHierarchy hier(HierarchyConfig{});
    Addr addr = 0x10000000;
    MemRef ref;
    ref.pc = 0x1000;
    std::vector<PrefetchRequest> reqs; // reused, as the engines do
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; i++) {
            addr += 64;
            ref.addr = addr;
            const HierOutcome out = hier.access(addr, MemOp::Load);
            dbcp.observe(ref, out);
            dbcp.drainRequestsInto(reqs);
        }
    });
}

double
ghbObserve()
{
    Ghb ghb(GhbConfig{});
    MemRef ref;
    ref.pc = 0x1000;
    HierOutcome out;
    out.level = HitLevel::Memory;
    Addr addr = 0x10000000;
    std::vector<PrefetchRequest> reqs; // reused, as the engines do
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; i++) {
            addr += 64;
            ref.addr = addr;
            ghb.observe(ref, out);
            ghb.drainRequestsInto(reqs);
        }
    });
}

double
ltcordsObservePath()
{
    LtCords ltc(paperLtcords(HierarchyConfig{}));
    CacheHierarchy hier(HierarchyConfig{});
    Addr addr = 0x10000000;
    MemRef ref;
    ref.pc = 0x1000;
    std::vector<PrefetchRequest> reqs; // reused, as the engines do
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; i++) {
            addr += 64;
            if (addr > 0x10000000 + (4 << 20))
                addr = 0x10000000; // loop a 4MB footprint
            ref.addr = addr;
            const HierOutcome out = hier.access(addr, MemOp::Load);
            ltc.observe(ref, out);
            ltc.drainRequestsInto(reqs);
        }
    });
}

// Both pull RefPuller::batchRefs-record batches through fill(), as
// the engines do.

double
workloadGeneration()
{
    auto src = makeWorkload("mcf");
    RefPuller puller;
    return nsPerOp([&](std::uint64_t n) {
        puller.forEach(*src, n,
                       [](const MemRef &ref) { consume(ref.addr); });
    });
}

double
traceEngineStep()
{
    auto pred = makePredictor("lt-cords", paperHierarchy());
    TraceEngine engine(paperHierarchy(), pred.get());
    auto src = makeWorkload("swim");
    RefPuller puller;
    return nsPerOp([&](std::uint64_t n) {
        puller.forEach(*src, n,
                       [&engine](const MemRef &ref) { engine.step(ref); });
    });
}

struct Micro
{
    const char *name;
    double (*fn)();
};

const Micro kMicros[] = {
    {"set_scan_8way", setScanDispatched},
    {"set_scan_8way_portable", setScanPortable},
    {"cache_access", cacheAccess},
    {"sigcache_lookup", sigCacheLookup},
    {"sigcache_insert", sigCacheInsert},
    {"history_table_update", historyTableUpdate},
    {"dbcp_observe", dbcpObserve},
    {"ghb_observe", ghbObserve},
    {"ltcords_observe_path", ltcordsObservePath},
    {"workload_generation", workloadGeneration},
    {"trace_engine_step", traceEngineStep},
};

} // namespace

int
main(int argc, char **argv)
{
    ResultSink sink("micro_structures", argc, argv);
    // One worker: parallel siblings would share the core's caches
    // and pollute every timing.
    ExperimentRunner runner(1);

    std::vector<RunCell> cells;
    for (const Micro &m : kMicros) {
        RunCell cell;
        cell.config = m.name;
        cells.push_back(std::move(cell));
    }
    ExperimentRunner::assignSeeds(cells);

    // Deliberately NOT sink.run(): these cells measure host timing,
    // so their results are not a pure function of the cell identity
    // and must never be served from the cell cache.
    auto results = runner.run(cells, [](const RunCell &cell,
                                        RunResult &r) {
        r.set("ns_per_op", kMicros[cell.index].fn());
    });

    Table table("Microbenchmarks: host ns per modelled operation");
    table.setHeader({"structure", "ns/op"});
    for (const auto &r : results)
        table.addRow({r.cell.config,
                      Table::num(r.get("ns_per_op"), 1)});
    sink.table(table);
    sink.add(std::move(results));
    return sink.finish();
}
