/**
 * @file
 * Multi-programmed simulation (Section 5.5 of the paper).
 *
 * Alternates execution between applications in round-robin quanta,
 * mimicking context switches. All on-chip and off-chip predictor
 * structures are shared and persist across switches; each
 * application's addresses are shifted into a disjoint physical range.
 * Coverage is attributed per application via the trace engine's stat
 * buckets.
 */

#ifndef LTC_SIM_MULTIPROG_HH
#define LTC_SIM_MULTIPROG_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pred/prefetcher.hh"
#include "sim/trace_engine.hh"
#include "trace/trace.hh"

namespace ltc
{

/** Configuration for a multi-programmed run. */
struct MultiProgConfig
{
    /** Shared L1/L2 hierarchy geometry. */
    HierarchyConfig hier;
    /** References per scheduling quantum, per application. */
    std::vector<std::uint64_t> quantumRefs;
    /** Total number of context switches simulated. */
    std::uint64_t switches = 60;
    /**
     * Deterministic tenant churn (the scaled-out Fig. 11 sweep): when
     * nonzero, the schedule is drawn from an Rng seeded with this
     * value — roughly half the tenants start live, each context
     * switch has a 1-in-8 chance of an arrival or death and a 1-in-8
     * chance of an out-of-order context swap, and scheduling is
     * otherwise round-robin over the live set. Zero keeps the static
     * round-robin interleaving (bit-identical to the historical
     * `app = switch % n` loop).
     */
    std::uint64_t churnSeed = 0;
};

/**
 * Materialise the schedule @p config describes: one quantum per
 * context switch, static round-robin or churn-driven (see churnSeed).
 * Exposed so tests and the Fig. 11 scale bench can inspect or replay
 * the exact interleaving runMultiProg executes.
 */
std::vector<TraceEngine::ScheduleQuantum>
buildMultiProgSchedule(const MultiProgConfig &config);

/**
 * Run @p apps under @p config with a shared @p pred.
 *
 * @param apps Unshifted trace sources, one per application (each is
 *             wrapped with a disjoint address shift internally).
 * @return Per-application coverage stats with opportunity filled in
 *         from a predictor-less pass over the identical interleaving.
 */
std::vector<CoverageStats>
runMultiProg(const MultiProgConfig &config, Prefetcher *pred,
             std::vector<std::unique_ptr<TraceSource>> apps);

} // namespace ltc

#endif // LTC_SIM_MULTIPROG_HH
