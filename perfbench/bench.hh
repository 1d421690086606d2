/**
 * @file
 * Workloads, cells and per-cell results of the steady-state benchmark.
 *
 * A workload is a list of cells (app x engine x predictor), run in one
 * thread. Each cell is built (timed as set-up), run through a timed
 * warm-up window from cold state, then through a timed steady-state
 * window. Both windows are split into equal chunks, and the cells of
 * a pass advance chunk by chunk in turn (see runRep). Every window is
 * a fixed number of references, so the simulated statistics of a cell
 * are a function of the seed alone.
 */

#ifndef LTC_PERFBENCH_BENCH_HH
#define LTC_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host.hh"
#include "tracing.hh"

namespace perfbench
{

enum class Engine
{
    Trace,    //!< TraceEngine::run
    Timing,   //!< TimingSim::run
    Schedule, //!< TraceEngine::runSchedule over many tenants
};

const char *engineName(Engine engine);

/** Equal chunks of every window (divides every warm and window). */
constexpr std::uint32_t kChunks = 16;

/** One app x engine x predictor configuration. */
struct CellSpec
{
    std::string app;  //!< workload generator ("mix" for Schedule)
    Engine engine = Engine::Trace;
    std::string pred; //!< "none", "lt-cords" or "ghb"
    /** Generator seed; every cell of one app shares it. */
    std::uint64_t seed = 1;
    /**
     * Warm-up and steady-state window lengths. In references for
     * Trace/Timing; in schedule rounds (one quantum per tenant) for
     * Schedule.
     */
    std::uint64_t warm = 0;
    std::uint64_t window = 0;

    /** "engine/pred/app", e.g. "trace/lt-cords/em3d". */
    std::string label() const;
};

/** A named list of cells. */
struct WorkloadSpec
{
    std::string name;
    std::vector<CellSpec> cells;
};

/**
 * Build workload @p name ("trace-steady", "timing-steady" or
 * "multiprog-1024"; no cells for anything else) with generator seeds
 * derived from @p seed.
 */
WorkloadSpec makeWorkloadSpec(const std::string &name, std::uint64_t seed);

/**
 * Every simulated statistic of a cell at one instant. Counters are
 * cumulative from cell start; the steady window is end - warm.
 */
struct SimCounters
{
    // Engine statistics (trace engine: summed over buckets).
    std::uint64_t accesses = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t correct = 0;
    std::uint64_t useless = 0;
    std::uint64_t early = 0;
    std::uint64_t partial = 0;
    std::uint64_t dropped = 0;
    std::uint64_t cycles = 0;
    std::uint64_t memBusBusy = 0;
    std::uint64_t queueCycles = 0;
    std::uint64_t missLatency = 0;
    std::vector<std::uint64_t> traffic;
    // Cache and MSHR counters.
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1dEvictions = 0;
    std::uint64_t l1dPrefetchFills = 0;
    std::uint64_t l2CacheMisses = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t mshrPeak = 0;
    // Prefetcher::exportStats.
    std::map<std::string, double> pred;
    /** Per-bucket (accesses, l1, l2) triples of a Schedule cell. */
    std::vector<std::uint64_t> buckets;

    /** Value of predictor statistic @p key (0 if absent). */
    double predStat(const std::string &key) const;
};

/** FNV-1a digest of every field of @p c. */
std::uint64_t digest(const SimCounters &c, std::uint64_t h);

/** One timed window of one cell. */
struct Window
{
    std::uint64_t refs = 0;
    double seconds = 0.0;
    std::vector<double> chunkS; //!< seconds per chunk
};

/** One execution of one cell. */
struct CellResult
{
    double setupS = 0.0;
    Window warm;
    Window steady;
    SimCounters atWarm; //!< after the warm-up window
    SimCounters atEnd;  //!< after the steady window
    std::uint64_t digest = 0;
    std::vector<std::string> failures;
};

/** All cells of one pass over a workload. */
struct RepResult
{
    bool traced = false;
    std::vector<CellResult> cells;
};

/** Where the traced run files its spans. */
struct SpanLog
{
    std::uint32_t rep = 0;
    std::vector<ChunkSpan> spans;
};

/**
 * Run every cell of @p w once: build them all, then advance their
 * warm-up and steady windows interleaved chunk by chunk, so every
 * cell's chunks spread over the whole pass. With @p spans non-null,
 * the cells run through the tracing adapters and file one span per
 * steady chunk there. @p cpu re-pins the thread between chunk rounds.
 */
RepResult runRep(const WorkloadSpec &w, SpanLog *spans, CpuPicker &cpu);

/** Build (and discard) every cell of @p w; returns the seconds. */
double setupOnly(const WorkloadSpec &w, CpuPicker &cpu);

/**
 * The opportunity pass: rerun every none cell of @p w once with a
 * do-nothing predictor attached, which takes the engine's predicted
 * kernel (or predicted schedule kernel) instead of its predictor-less
 * one, and require the same demand counts. Failures are appended to
 * the none cells of @p rep.
 */
void checkOpportunity(const WorkloadSpec &w, RepResult &rep);

/** Everything one benchmark invocation measured. */
struct RunData
{
    WorkloadSpec workload;
    std::vector<RepResult> plain;  //!< untraced passes
    std::vector<RepResult> traced; //!< traced passes (--trace 1)
    SpanLog spans;                 //!< the traced passes' chunk spans
    SpanCost calibratedSpanCost;   //!< calibrateSpanCost()
    SpanCost spanCost;             //!< capSpanCost() of the above
    std::vector<double> setupSamples; //!< seconds to build all cells
    double peakRssMb = 0.0;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The BENCHMARK.json end_to_end metrics, from the untraced passes. */
std::vector<Metric> endToEndMetrics(const RunData &run);

/** The BENCHMARK.json per_layer metrics, from the traced passes. */
std::vector<Metric> perLayerMetrics(const RunData &run);

/** Cell executions attempted and failed, over every pass. */
std::pair<std::uint64_t, std::uint64_t> cellTally(const RunData &run);

/** Human-readable tables: cells, digests, drift, layers, metrics. */
void printReport(const RunData &run);

/** Write the traced passes' spans as tab-separated text. */
bool writeSpans(const RunData &run, const std::string &path);

} // namespace perfbench

#endif // LTC_PERFBENCH_BENCH_HH
