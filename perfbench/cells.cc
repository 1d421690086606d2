/**
 * @file
 * Cell construction and the timed warm-up / steady-state windows.
 * Uses only the simulator's public API.
 */

#include <cstring>
#include <memory>
#include <span>

#include "bench.hh"
#include "host.hh"
#include "sim/experiment.hh"
#include "sim/multiprog.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"
#include "trace/workloads.hh"
#include "util/hash.hh"
#include "util/stats.hh"

namespace perfbench
{

const char *
engineName(Engine engine)
{
    switch (engine) {
      case Engine::Trace:
        return "trace";
      case Engine::Timing:
        return "timing";
      case Engine::Schedule:
        return "schedule";
    }
    return "?";
}

std::string
CellSpec::label() const
{
    return std::string(engineName(engine)) + "/" + pred + "/" + app;
}

namespace
{

/** Generator seed of app (or tenant) @p index under workload seed. */
std::uint64_t
appSeed(std::uint64_t seed, std::uint64_t index)
{
    return ltc::hashCombine(ltc::mix64(seed), index);
}

const char *const kApps[] = {"swim", "mcf", "em3d"};

// The Schedule cell: Fig. 11 at its largest scale, with many short
// quanta per tenant.
constexpr std::uint32_t kTenants = 1024;
constexpr std::uint64_t kQuantumRefs = 512;
constexpr double kTenantScale = 0.25;
/** Fig. 11 tenant mix, cycled over the tenants. */
const char *const kTenantMix[] = {"mcf", "em3d", "gcc", "swim"};

} // namespace

WorkloadSpec
makeWorkloadSpec(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec w;
    w.name = name;
    if (name == "trace-steady" || name == "timing-steady") {
        const bool timing = name == "timing-steady";
        const std::vector<std::string> preds =
            timing ? std::vector<std::string>{"none", "lt-cords"}
                   : std::vector<std::string>{"none", "lt-cords", "ghb"};
        for (std::size_t a = 0; a < std::size(kApps); a++) {
            for (const std::string &pred : preds) {
                CellSpec c;
                c.app = kApps[a];
                c.engine = timing ? Engine::Timing : Engine::Trace;
                c.pred = pred;
                c.seed = appSeed(seed, a);
                // Trace LT-cords keeps slowing until ~2M references
                // (its warm-up knee), so its steady window starts
                // there; a none cell spans the same windows, as their
                // coverage opportunity. GHB settles within 0.5M. The
                // windows are short enough that several passes fit a
                // run, which the throughput filter needs.
                if (timing) {
                    c.warm = 1'000'000;
                    c.window = 2'000'000;
                } else if (pred == "ghb") {
                    c.warm = 500'000;
                    c.window = 1'000'000;
                } else {
                    c.warm = 2'000'000;
                    c.window = 2'000'000;
                }
                w.cells.push_back(c);
            }
        }
    } else if (name == "multiprog-1024") {
        CellSpec c;
        c.app = "mix";
        c.engine = Engine::Schedule;
        c.pred = "none";
        c.seed = seed;
        c.warm = 16;
        c.window = 48;
        w.cells.push_back(c);
    }
    return w;
}

double
SimCounters::predStat(const std::string &key) const
{
    const auto it = pred.find(key);
    return it == pred.end() ? 0.0 : it->second;
}

std::uint64_t
digest(const SimCounters &c, std::uint64_t h)
{
    const auto fold = [&h](std::uint64_t v) {
        unsigned char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        h = ltc::fnv1a64(bytes, sizeof bytes, h);
    };
    for (std::uint64_t v :
         {c.accesses, c.instructions, c.l1Misses, c.l2Misses, c.correct,
          c.useless, c.early, c.partial, c.dropped, c.cycles,
          c.memBusBusy, c.queueCycles, c.missLatency, c.l1dMisses,
          c.l1dEvictions, c.l1dPrefetchFills, c.l2CacheMisses,
          c.mshrMerges, c.mshrPeak})
        fold(v);
    for (std::uint64_t v : c.traffic)
        fold(v);
    for (std::uint64_t v : c.buckets)
        fold(v);
    for (const auto &[key, value] : c.pred) {
        h = ltc::fnv1a64(reinterpret_cast<const unsigned char *>(key.data()),
                         key.size(), h);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        fold(bits);
    }
    return h;
}

namespace
{

/** Everything one cell owns; built in one timed step. */
struct BuiltCell
{
    std::vector<std::unique_ptr<ltc::TraceSource>> sources;
    std::vector<std::unique_ptr<TimedSource>> timedSources;
    std::unique_ptr<ltc::Prefetcher> pred;
    std::unique_ptr<TimedPrefetcher> timedPred;
    std::vector<ltc::TraceEngine::ScheduleQuantum> schedule;
    std::vector<ltc::TraceEngine::TenantSlot> tenants;
    std::size_t schedulePos = 0;
    std::unique_ptr<ltc::TraceEngine> trace;
    std::unique_ptr<ltc::TimingSim> timing;

    /** The source the engine pulls from (single-app cells). */
    ltc::TraceSource &
    source()
    {
        return timedSources.empty() ? *sources[0] : *timedSources[0];
    }

    /** The predictor the engine drives (null for "none"). */
    ltc::Prefetcher *
    driven()
    {
        return timedPred ? timedPred.get() : pred.get();
    }
};

/**
 * Build the sources, schedule, predictor and engine of @p spec. With
 * @p acc non-null the sources and predictor are wrapped in the
 * tracing adapters. @p null_pred replaces a "none" cell's missing
 * predictor by @p null_pred (the opportunity cross-check).
 */
BuiltCell
build(const CellSpec &spec, LayerTimes *acc,
      ltc::Prefetcher *null_pred = nullptr)
{
    BuiltCell b;
    const ltc::HierarchyConfig hier = ltc::paperHierarchy();
    if (spec.engine == Engine::Schedule) {
        for (std::uint32_t i = 0; i < kTenants; i++) {
            b.sources.push_back(std::make_unique<ltc::ShiftSource>(
                ltc::makeWorkload(kTenantMix[i % std::size(kTenantMix)],
                                  appSeed(spec.seed, i), kTenantScale),
                (ltc::Addr{1} << 32) * i));
        }
        ltc::MultiProgConfig cfg;
        cfg.hier = hier;
        cfg.quantumRefs.assign(kTenants, kQuantumRefs);
        cfg.switches = std::uint64_t{kTenants} * (spec.warm + spec.window);
        b.schedule = ltc::buildMultiProgSchedule(cfg);
    } else {
        b.sources.push_back(ltc::makeWorkload(spec.app, spec.seed));
    }
    if (acc) {
        for (auto &src : b.sources)
            b.timedSources.push_back(
                std::make_unique<TimedSource>(*src, *acc));
    }
    for (std::size_t i = 0; i < b.sources.size(); i++) {
        ltc::TraceEngine::TenantSlot slot;
        slot.src = acc ? static_cast<ltc::TraceSource *>(
                             b.timedSources[i].get())
                       : b.sources[i].get();
        slot.bucket = static_cast<std::uint32_t>(i);
        b.tenants.push_back(slot);
    }

    b.pred = ltc::makePredictor(spec.pred, hier,
                                /*model_stream_latency=*/spec.engine ==
                                    Engine::Timing);
    if (acc && b.pred)
        b.timedPred = std::make_unique<TimedPrefetcher>(*b.pred, *acc);
    ltc::Prefetcher *driven = b.driven() ? b.driven() : null_pred;

    if (spec.engine == Engine::Timing) {
        b.timing = std::make_unique<ltc::TimingSim>(ltc::paperTiming(),
                                                    driven);
    } else {
        b.trace = std::make_unique<ltc::TraceEngine>(
            hier, driven, static_cast<std::uint32_t>(b.sources.size()));
    }
    return b;
}

/** References one unit of spec.warm/spec.window stands for. */
std::uint64_t
refsPerUnit(const CellSpec &spec)
{
    return spec.engine == Engine::Schedule
        ? std::uint64_t{kTenants} * kQuantumRefs
        : 1;
}

/** Advance the cell by @p units; returns the references consumed. */
std::uint64_t
advance(BuiltCell &b, const CellSpec &spec, std::uint64_t units)
{
    switch (spec.engine) {
      case Engine::Trace:
        return b.trace->run(b.source(), units);
      case Engine::Timing:
        return b.timing->run(b.source(), units);
      case Engine::Schedule: {
        const std::size_t quanta = units * b.tenants.size();
        const auto part = std::span<const ltc::TraceEngine::ScheduleQuantum>(
                              b.schedule)
                              .subspan(b.schedulePos, quanta);
        b.schedulePos += quanta;
        return b.trace->runSchedule(b.tenants, part);
      }
    }
    return 0;
}

void
predCounters(const ltc::Prefetcher *pred, SimCounters &c)
{
    if (!pred)
        return;
    ltc::StatSet set(pred->name());
    pred->exportStats(set);
    c.pred = set.values();
}

void
cacheCounters(const ltc::CacheHierarchy &hier, SimCounters &c)
{
    c.l1dMisses = hier.l1d().misses();
    c.l1dEvictions = hier.l1d().evictions();
    c.l1dPrefetchFills = hier.l1d().prefetchFills();
    c.l2CacheMisses = hier.l2().misses();
}

SimCounters
snapshot(BuiltCell &b)
{
    SimCounters c;
    constexpr auto classes =
        static_cast<unsigned>(ltc::Traffic::NumClasses);
    c.traffic.assign(classes, 0);
    if (b.timing) {
        const ltc::TimingStats s = b.timing->stats();
        c.accesses = s.accesses;
        c.instructions = s.instructions;
        c.l1Misses = s.l1Misses;
        c.l2Misses = s.l2Misses;
        c.correct = s.correct;
        c.useless = s.useless;
        c.partial = s.partial;
        c.dropped = s.dropped;
        c.cycles = s.cycles;
        c.memBusBusy = s.memBusBusy;
        c.queueCycles = s.l1l2ReqQueue + s.l1l2DataQueue +
            s.memReqQueue + s.memDataQueue;
        c.missLatency = s.missLatencyTotal;
        for (unsigned t = 0; t < classes; t++)
            c.traffic[t] = s.traffic.bytes(static_cast<ltc::Traffic>(t));
        cacheCounters(b.timing->hierarchy(), c);
        c.mshrMerges = b.timing->mshrs().merges();
        c.mshrPeak = b.timing->mshrs().peakOccupancy();
    } else {
        for (std::uint32_t i = 0; i < b.sources.size(); i++) {
            const ltc::CoverageStats &s = b.trace->stats(i);
            c.accesses += s.accesses;
            c.instructions += s.instructions;
            c.l1Misses += s.l1Misses;
            c.l2Misses += s.l2Misses;
            c.correct += s.correct;
            c.useless += s.uselessPrefetches;
            c.early += s.early;
            for (unsigned t = 0; t < classes; t++)
                c.traffic[t] +=
                    s.traffic.bytes(static_cast<ltc::Traffic>(t));
            if (b.sources.size() > 1) {
                c.buckets.push_back(s.accesses);
                c.buckets.push_back(s.l1Misses);
                c.buckets.push_back(s.l2Misses);
            }
        }
        cacheCounters(b.trace->hierarchy(), c);
    }
    predCounters(b.driven(), c);
    return c;
}

void
audit(BuiltCell &b)
{
    // The engines audit their caches, MSHRs, busses and the attached
    // predictor; a violated invariant panics.
    if (b.timing)
        b.timing->auditInvariants();
    else
        b.trace->auditInvariants();
}

/** The accounting identities every cell's counters must satisfy. */
void
checkAccounting(const CellResult &r, std::uint64_t expected,
                std::vector<std::string> &failures)
{
    const auto fail = [&failures](std::string msg) {
        failures.push_back(std::move(msg));
    };
    const SimCounters &c = r.atEnd;
    const std::uint64_t consumed = r.warm.refs + r.steady.refs;
    if (consumed != expected)
        fail("engine consumed " + std::to_string(consumed) +
             " refs, requested " + std::to_string(expected));
    if (c.accesses != expected)
        fail("accesses " + std::to_string(c.accesses) + " != requested " +
             std::to_string(expected));
    if (!(c.l2Misses <= c.l1Misses && c.l1Misses <= c.accesses))
        fail("l2Misses <= l1Misses <= accesses violated");
    for (std::size_t i = 0; i + 2 < c.buckets.size(); i += 3) {
        if (!(c.buckets[i + 2] <= c.buckets[i + 1] &&
              c.buckets[i + 1] <= c.buckets[i]))
            fail("bucket " + std::to_string(i / 3) +
                 ": l2Misses <= l1Misses <= accesses violated");
    }
}

/** Digest seed of a cell: its label. */
std::uint64_t
labelHash(const CellSpec &spec)
{
    const std::string label = spec.label();
    return ltc::fnv1a64(
        reinterpret_cast<const unsigned char *>(label.data()), label.size());
}

/**
 * Advance every cell through its warm-up (@p warm) or steady window,
 * interleaved chunk by chunk: chunk k of every cell runs before chunk
 * k + 1 of any, so each cell's chunks are spread over the whole pass
 * and see the same mix of host contention. Each chunk is timed; with
 * @p spans non-null, one span per chunk files the layer time its
 * cell's accumulator gathered during it.
 */
void
runWindows(const WorkloadSpec &w, std::vector<BuiltCell> &built,
           std::vector<LayerTimes> &acc, bool warm, SpanLog *spans,
           CpuPicker &cpu, RepResult &rep)
{
    for (std::uint32_t k = 0; k < kChunks; k++) {
        cpu.maybeRepick();
        for (std::uint32_t i = 0; i < w.cells.size(); i++) {
            const CellSpec &spec = w.cells[i];
            Window &win = warm ? rep.cells[i].warm : rep.cells[i].steady;
            acc[i] = LayerTimes{};
            const std::int64_t c0 = nowNs();
            const std::uint64_t done = advance(
                built[i], spec, (warm ? spec.warm : spec.window) / kChunks);
            const std::int64_t dur = nowNs() - c0;
            win.refs += done;
            win.chunkS.push_back(static_cast<double>(dur) * 1e-9);
            win.seconds += win.chunkS.back();
            if (spans) {
                ChunkSpan span;
                span.rep = spans->rep;
                span.cell = i;
                span.chunk = k;
                span.startNs = c0;
                span.durNs = dur;
                span.refs = done;
                span.children = acc[i];
                spans->spans.push_back(span);
            }
        }
    }
}

} // namespace

RepResult
runRep(const WorkloadSpec &w, SpanLog *spans, CpuPicker &cpu)
{
    const std::size_t n = w.cells.size();
    RepResult rep;
    rep.traced = spans != nullptr;
    rep.cells.resize(n);
    // Sized once: the tracing adapters hold references into it.
    std::vector<LayerTimes> acc(n);
    std::vector<BuiltCell> built;
    built.reserve(n);
    cpu.maybeRepick();
    for (std::size_t i = 0; i < n; i++) {
        const std::int64_t t0 = nowNs();
        built.push_back(build(w.cells[i], spans ? &acc[i] : nullptr));
        rep.cells[i].setupS = static_cast<double>(nowNs() - t0) * 1e-9;
    }

    runWindows(w, built, acc, /*warm=*/true, nullptr, cpu, rep);
    for (std::size_t i = 0; i < n; i++)
        rep.cells[i].atWarm = snapshot(built[i]);
    runWindows(w, built, acc, /*warm=*/false, spans, cpu, rep);

    for (std::size_t i = 0; i < n; i++) {
        const CellSpec &spec = w.cells[i];
        CellResult &r = rep.cells[i];
        r.atEnd = snapshot(built[i]);
        audit(built[i]);
        checkAccounting(r, (spec.warm + spec.window) * refsPerUnit(spec),
                        r.failures);
        r.digest = digest(r.atEnd, digest(r.atWarm, labelHash(spec)));
    }
    return rep;
}

double
setupOnly(const WorkloadSpec &w, CpuPicker &cpu)
{
    cpu.maybeRepick();
    double secs = 0.0;
    for (const CellSpec &spec : w.cells) {
        const std::int64_t t0 = nowNs();
        BuiltCell b = build(spec, nullptr);
        secs += static_cast<double>(nowNs() - t0) * 1e-9;
    }
    return secs;
}

void
checkOpportunity(const WorkloadSpec &w, RepResult &rep)
{
    for (std::uint32_t i = 0; i < w.cells.size(); i++) {
        const CellSpec &spec = w.cells[i];
        if (spec.pred != "none")
            continue;
        ltc::NullPrefetcher null_pred;
        BuiltCell b = build(spec, nullptr, &null_pred);
        advance(b, spec, spec.warm + spec.window);
        const SimCounters got = snapshot(b);
        const SimCounters &want = rep.cells[i].atEnd;
        std::vector<std::string> &failures = rep.cells[i].failures;
        const auto expect = [&](const char *what, std::uint64_t a,
                                std::uint64_t e) {
            if (a != e)
                failures.push_back(
                    std::string("opportunity pass ") + what + " " +
                    std::to_string(a) + " != none cell's " +
                    std::to_string(e));
        };
        expect("accesses", got.accesses, want.accesses);
        expect("L1D misses", got.l1Misses, want.l1Misses);
        expect("L2 misses", got.l2Misses, want.l2Misses);
        expect("instructions", got.instructions, want.instructions);
        expect("cycles", got.cycles, want.cycles);
        if (got.buckets != want.buckets)
            failures.push_back("opportunity pass per-tenant counts "
                               "differ from the none cell's");
    }
}

} // namespace perfbench
