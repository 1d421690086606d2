/**
 * @file
 * Parallel sharded experiment runner and machine-readable result
 * sinks for the benchmark harness.
 *
 * Every bench binary reproduces one of the paper's figures or tables
 * by evaluating a sweep of independent (workload x config) cells.
 * ExperimentRunner shards such a sweep over a pool of worker threads
 * while keeping results bit-identical to a serial run: cells are
 * indexed, each cell derives its RNG seed from (base seed, cell
 * index) alone, and results are written into an index-addressed
 * vector, so neither thread count nor scheduling order can leak into
 * the output.
 *
 * ResultSink collects the per-cell RunResult records plus any
 * rendered tables and summary notes, prints the familiar text
 * output, and additionally exports the whole run as JSON and/or CSV
 * (`--json out.json` / `--csv out.csv`, or the LTC_JSON / LTC_CSV
 * environment variables) for scripted post-processing.
 */

#ifndef LTC_SIM_RUNNER_HH
#define LTC_SIM_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/random.hh"
#include "util/table.hh"

namespace ltc
{

class CellStore;
struct CellStoreStats;

/**
 * Worker-thread count for experiment sweeps: the LTC_JOBS
 * environment variable if set (>= 1), otherwise
 * std::thread::hardware_concurrency(), otherwise 1.
 */
unsigned defaultJobs();

/**
 * One shard of a sweep: an independent (workload x config) pair.
 *
 * The seed is derived deterministically from the sweep's base seed
 * and the cell index, never from the executing thread, so a cell
 * that wants cell-local randomness (via rng()) still produces
 * identical results under any LTC_JOBS. Cells that must replay the
 * identical reference stream across configs (e.g. speedup tables
 * comparing predictors on one workload) should instead seed their
 * workload from a per-workload constant, as makeWorkload() defaults
 * to.
 */
struct RunCell
{
    /** Position in the sweep; results are ordered by this index. */
    std::size_t index = 0;
    /** Workload name ("" when the sweep is not over workloads). */
    std::string workload;
    /** Configuration label ("" for single-config sweeps). */
    std::string config;
    /** Deterministic per-cell seed: hashCombine(base_seed, index). */
    std::uint64_t seed = 0;

    /** Fresh RNG seeded for this cell. */
    Rng rng() const { return Rng(seed); }
};

/**
 * The record an experiment cell produces: its cell identity plus an
 * insertion-ordered list of named scalar metrics. Insertion order is
 * preserved so serialized output is stable and human-diffable.
 */
class RunResult
{
  public:
    RunCell cell;

    /** Set metric @p key to @p value (overwrites, keeps position). */
    void set(const std::string &key, double value);

    /** Value of metric @p key; 0 if absent. */
    double get(const std::string &key) const;

    /** True if metric @p key was set. */
    bool has(const std::string &key) const;

    /** All metrics in insertion order. */
    const std::vector<std::pair<std::string, double>> &metrics() const
    {
        return metrics_;
    }

  private:
    std::vector<std::pair<std::string, double>> metrics_;
};

/**
 * Thread-pooled sweep executor.
 *
 * Cells are claimed from an atomic cursor by `jobs` worker threads
 * and their results stored by cell index, so any thread count
 * produces byte-identical output. Exceptions thrown by a cell are
 * captured and rethrown on the calling thread after the pool drains.
 */
class ExperimentRunner
{
  public:
    /** @param jobs Worker threads; 0 selects defaultJobs(). */
    explicit ExperimentRunner(unsigned jobs = 0);

    /** Worker threads this runner will use. */
    unsigned jobs() const { return jobs_; }

    /**
     * Execute @p fn once per cell and return the RunResult records
     * in cell-index order. @p fn receives a result pre-populated
     * with the cell identity.
     */
    std::vector<RunResult>
    run(const std::vector<RunCell> &cells,
        const std::function<void(const RunCell &, RunResult &)> &fn)
        const;

    /**
     * Generic deterministic parallel map over [0, count): for cells
     * whose products are richer than scalar metrics (histograms,
     * full distributions). T must be default-constructible.
     */
    template <typename T>
    std::vector<T>
    map(std::size_t count,
        const std::function<T(std::size_t)> &fn) const
    {
        std::vector<T> out(count);
        forEachIndex(count, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Run @p fn for every index in [0, count) across the worker
     * pool. Deterministic output is the caller's responsibility:
     * write only to index-addressed slots.
     */
    void forEachIndex(std::size_t count,
                      const std::function<void(std::size_t)> &fn)
        const;

    /**
     * Build the (workload x config) cross-product sweep, workloads
     * major, with indices and per-cell seeds assigned.
     */
    static std::vector<RunCell>
    cross(const std::vector<std::string> &workloads,
          const std::vector<std::string> &configs,
          std::uint64_t base_seed = 1);

    /** Single-config sweep over @p workloads. */
    static std::vector<RunCell>
    cells(const std::vector<std::string> &workloads,
          std::uint64_t base_seed = 1);

    /**
     * Assign indices and deterministic seeds to a hand-built cell
     * list (for sweeps that are not a plain cross product).
     */
    static void assignSeeds(std::vector<RunCell> &cells,
                            std::uint64_t base_seed = 1);

    /**
     * Position of @p cell's config within its workload's sweep, for
     * a cross() layout with @p num_configs configs per workload.
     * Use these instead of hand-rolled index arithmetic so the
     * workloads-major convention lives in one place.
     */
    static std::size_t
    configIndex(const RunCell &cell, std::size_t num_configs)
    {
        return cell.index % num_configs;
    }

    /** Position of @p cell's workload in a cross() layout. */
    static std::size_t
    workloadIndex(const RunCell &cell, std::size_t num_configs)
    {
        return cell.index / num_configs;
    }

    /**
     * Element for (workload @p w, config @p c) in a cross()-ordered
     * result vector with @p num_configs configs per workload.
     */
    template <typename T>
    static T &
    at(std::vector<T> &results, std::size_t w, std::size_t c,
       std::size_t num_configs)
    {
        return results[w * num_configs + c];
    }

    /** Const overload of at(). */
    template <typename T>
    static const T &
    at(const std::vector<T> &results, std::size_t w, std::size_t c,
       std::size_t num_configs)
    {
        return results[w * num_configs + c];
    }

  private:
    unsigned jobs_;
};

/**
 * Serialize records as a JSON array (stable key order, shortest
 * round-trip number formatting; no timing or host state, so output
 * is byte-identical across thread counts and machines).
 */
std::string resultsToJson(const std::vector<RunResult> &records);

/**
 * Serialize records as RFC-4180 CSV. Columns: cell, workload,
 * config, seed, then the union of metric keys in first-appearance
 * order; cells lacking a metric emit an empty field.
 */
std::string resultsToCsv(const std::vector<RunResult> &records);

/**
 * Parse records back from JSON produced by resultsToJson() or by
 * ResultSink (whose document nests the array under "records").
 * Fatal error on malformed input.
 */
std::vector<RunResult> resultsFromJson(const std::string &text);

/**
 * Per-bench output collector.
 *
 * Tables and notes print to stdout exactly as the historical
 * harness did (aligned text plus a `[csv]` block). finish() then
 * writes the machine-readable exports if requested via `--json
 * <path>` / `--csv <path>` arguments or the LTC_JSON / LTC_CSV
 * environment variables ("-" selects stdout). The JSON document is
 *
 *     {"bench": ..., "schema": 1, "records": [...],
 *      "tables": [{"title", "header", "rows"}...], "notes": [...]}
 *
 * and deliberately contains no timestamps, durations, or thread
 * counts: two runs of one bench differing only in LTC_JOBS produce
 * byte-identical files.
 *
 * The sink is also the bench-side entry to the experiment fabric
 * (sim/cell_store.hh): run() executes a sweep through the
 * content-addressed cell cache when one is configured (`--cell-cache
 * <dir>` / LTC_CELL_CACHE) and through the multi-process backend
 * when requested (`--procs <n>` / LTC_SWEEP_PROCS), falling back to
 * the plain ExperimentRunner otherwise. Any cache/process
 * configuration keeps the exports byte-identical to an uncached
 * single-process run.
 */
class ResultSink
{
  public:
    /**
     * @param bench Bench name recorded in the JSON document.
     * @param argc/@p argv Optional CLI arguments; recognises
     *        `--json <path>`/`--json=<path>` and `--csv` likewise,
     *        plus `--trace-dir <dir>` which sets the registry's
     *        trace-discovery directory (setTraceDir() in
     *        trace/workloads.hh, the flag equivalent of
     *        LTC_TRACE_DIR) so benches sweep file-backed .ltct
     *        workloads, `--cell-cache <dir>` (LTC_CELL_CACHE) which
     *        enables the cell cache, and `--procs <n>`
     *        (LTC_SWEEP_PROCS) which runs cached sweeps with n
     *        cooperating processes. Unknown arguments are a fatal
     *        usage error. When LTC_SWEEP_WORKER marks this process
     *        as a spawned sweep worker, stdout and the exports are
     *        suppressed: the worker's only output is the records it
     *        publishes into the shared cell cache.
     */
    ResultSink(std::string bench, int argc = 0,
               char *const *argv = nullptr);

    ~ResultSink();

    /**
     * Execute a sweep through the experiment fabric: equivalent to
     * `runner.run(cells, fn)` but consulting the cell cache first
     * when one is configured, so cache hits skip simulation, killed
     * sweeps resume, and `--procs` distributes cells over worker
     * processes. Pass @p cacheable = false for sweeps whose results
     * are not a pure function of the cell identity (self-timing
     * benches); those always run uncached.
     */
    std::vector<RunResult>
    run(const ExperimentRunner &runner,
        const std::vector<RunCell> &cells,
        const std::function<void(const RunCell &, RunResult &)> &fn,
        bool cacheable = true);

    /**
     * Counters of the cell store behind run(), all zero when no
     * cache is configured. `sims` is the number of cells actually
     * simulated - the warm-cache acceptance criterion asserts it.
     */
    CellStoreStats cellStats() const;

    /** Print @p t (text + [csv] block) and retain it for export. */
    void table(const Table &t);

    /** Append records to the exported result set. */
    void add(std::vector<RunResult> records);

    /** Print a summary line (with newline) and retain it. */
    void note(const std::string &line);

    /** Records accumulated so far. */
    const std::vector<RunResult> &records() const { return records_; }

    /** The full JSON document described above. */
    std::string json() const;

    /**
     * Write any requested exports; returns the bench's exit status
     * (0). Call once, last.
     */
    int finish();

  private:
    std::string bench_;
    std::string jsonPath_;
    std::string csvPath_;
    std::string cacheDir_;    //!< cell-cache directory ("" = off)
    unsigned procs_ = 1;      //!< cooperating processes for run()
    unsigned workerIndex_ = 0; //!< >0 when this is a sweep worker
    std::uint64_t sweepCalls_ = 0; //!< run() ordinal = sweep segment
    char *const *argv_ = nullptr; //!< retained for worker re-exec
    std::unique_ptr<CellStore> store_;
    std::vector<RunResult> records_;
    std::vector<Table> tables_;
    std::vector<std::string> notes_;
};

} // namespace ltc

#endif // LTC_SIM_RUNNER_HH
