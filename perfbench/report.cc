/**
 * @file
 * Metric aggregation and the human-readable report.
 *
 * Host-time figures come from the untraced passes (end-to-end) or the
 * traced passes (per-layer). Simulated counts come from the first
 * untraced pass; every other pass must reproduce them exactly (the
 * per-cell digest), so which pass they are read from does not matter.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hh"

namespace perfbench
{

SpanCost
calibrateSpanCost()
{
    constexpr int kIters = 200'000;
    constexpr int kRounds = 7;
    std::vector<double> empty;
    std::vector<double> total;
    for (int r = 0; r < kRounds; r++) {
        LayerTimes acc;
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kIters; i++) {
            const std::int64_t s = nowNs();
            acc.add(Observe, nowNs() - s);
        }
        const std::int64_t dur = nowNs() - t0;
        empty.push_back(static_cast<double>(acc.ns[Observe]) / kIters);
        total.push_back(static_cast<double>(dur) / kIters);
    }
    std::sort(empty.begin(), empty.end());
    std::sort(total.begin(), total.end());
    return {empty[kRounds / 2], total[kRounds / 2]};
}

SpanCost
capSpanCost(SpanCost cost, const std::vector<ChunkSpan> &spans,
            std::size_t cells)
{
    constexpr std::uint64_t kMinCalls = 10'000;
    std::vector<LayerTimes> per_cell(cells);
    for (const ChunkSpan &s : spans)
        per_cell[s.cell] += s.children;
    for (const LayerTimes &t : per_cell) {
        for (unsigned l = 0; l < NumLayers; l++) {
            if (t.calls[l] >= kMinCalls)
                cost.emptySpanNs = std::min(
                    cost.emptySpanNs, static_cast<double>(t.ns[l]) /
                        static_cast<double>(t.calls[l]));
        }
    }
    return cost;
}

namespace
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (0..100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Steady-window delta of one counter. */
template <typename F>
double
windowDelta(const CellResult &r, F field)
{
    return static_cast<double>(field(r.atEnd)) -
        static_cast<double>(field(r.atWarm));
}

double
predDelta(const CellResult &r, const std::string &key)
{
    return r.atEnd.predStat(key) - r.atWarm.predStat(key);
}

/**
 * Does cell @p i feed a drift figure: the one for cell @p cell, or
 * (@p cell < 0) the workload's, which pools its LT-cords cells (the
 * schedule cell on multiprog-1024)?
 */
bool
driftCell(const RunData &run, std::size_t i, std::int64_t cell)
{
    if (cell >= 0)
        return static_cast<std::int64_t>(i) == cell;
    const CellSpec &spec = run.workload.cells[i];
    return spec.pred == "lt-cords" || spec.engine == Engine::Schedule;
}

const Window &
window(const CellResult &c, bool warm)
{
    return warm ? c.warm : c.steady;
}

/** Raw throughput of one pass over its warm-up or steady windows. */
double
passMrefs(const RepResult &rep, bool warm)
{
    double refs = 0.0;
    double secs = 0.0;
    for (const CellResult &c : rep.cells) {
        refs += static_cast<double>(window(c, warm).refs);
        secs += window(c, warm).seconds;
    }
    return ratio(refs, secs) / 1e6;
}

/**
 * Contention-filtered throughput over every untraced pass. On a shared
 * host a busy neighbour slows a varying share of the chunks by up to
 * 2x, in phases lasting seconds to minutes.
 *
 * Steady windows barely drift, so each cell's window is charged
 * (chunk count) x (10th percentile of its chunk times, pooled over
 * the passes): that reads the cell's own speed as long as a tenth of
 * its chunks ran undisturbed. Warm-up windows start cold and speed up
 * or slow down chunk by chunk, so there each chunk position is
 * charged its fastest time over the passes instead.
 */
double
filteredMrefs(const RunData &run, bool warm)
{
    double refs = 0.0;
    double secs = 0.0;
    for (std::size_t i = 0; i < run.workload.cells.size(); i++) {
        const Window &first = window(run.plain.front().cells[i], warm);
        refs += static_cast<double>(first.refs);
        if (warm) {
            for (std::size_t k = 0; k < first.chunkS.size(); k++) {
                double best = first.chunkS[k];
                for (const RepResult &rep : run.plain)
                    best = std::min(best, rep.cells[i].warm.chunkS[k]);
                secs += best;
            }
        } else {
            std::vector<double> chunks;
            for (const RepResult &rep : run.plain) {
                const std::vector<double> &c = rep.cells[i].steady.chunkS;
                chunks.insert(chunks.end(), c.begin(), c.end());
            }
            secs += percentile(chunks, 10) *
                static_cast<double>(first.chunkS.size());
        }
    }
    return ratio(refs, secs) / 1e6;
}

double
passWindowSeconds(const RepResult &rep)
{
    double secs = 0.0;
    for (const CellResult &c : rep.cells)
        secs += c.steady.seconds;
    return secs;
}

/** Steady chunk ns/ref of the drift cells (see driftCell). */
std::vector<double>
driftChunks(const RunData &run, std::int64_t cell)
{
    std::vector<double> out;
    for (const RepResult &rep : run.plain) {
        for (std::size_t i = 0; i < rep.cells.size(); i++) {
            if (!driftCell(run, i, cell))
                continue;
            const Window &w = rep.cells[i].steady;
            const double per = static_cast<double>(w.refs) /
                static_cast<double>(w.chunkS.size());
            for (double s : w.chunkS)
                out.push_back(s * 1e9 / per);
        }
    }
    return out;
}

/**
 * Mean chunk time of the window's last quarter over its first
 * quarter, pooled over the drift cells of every untraced pass.
 */
double
driftRatio(const RunData &run, std::int64_t cell)
{
    double first = 0.0;
    double last = 0.0;
    for (const RepResult &rep : run.plain) {
        for (std::size_t i = 0; i < rep.cells.size(); i++) {
            if (!driftCell(run, i, cell))
                continue;
            const std::vector<double> &ch = rep.cells[i].steady.chunkS;
            const std::size_t q = ch.size() / 4;
            for (std::size_t k = 0; k < q; k++) {
                first += ch[k];
                last += ch[ch.size() - 1 - k];
            }
        }
    }
    return ratio(last, first);
}

/** Per-layer host time of a group of cells, from the spans. */
struct LayerSum
{
    std::uint64_t refs = 0;
    double chunkNs = 0.0;
    LayerTimes children;

    /** Child layer time with the empty-span cost removed. */
    double
    childNs(Layer layer, const SpanCost &cost) const
    {
        return static_cast<double>(children.ns[layer]) -
            static_cast<double>(children.calls[layer]) * cost.emptySpanNs;
    }

    /** Chunk time not covered by children or the timing itself. */
    double
    selfNs(const SpanCost &cost) const
    {
        double self = chunkNs;
        for (unsigned l = 0; l < NumLayers; l++) {
            self -= static_cast<double>(children.ns[l]) +
                static_cast<double>(children.calls[l]) *
                    (cost.perSpanNs - cost.emptySpanNs);
        }
        return self;
    }

    double
    perRef(double ns) const
    {
        return ratio(ns, static_cast<double>(refs));
    }
};

template <typename Pred>
LayerSum
layerSum(const RunData &run, Pred pick)
{
    LayerSum s;
    for (const ChunkSpan &span : run.spans.spans) {
        if (!pick(run.workload.cells[span.cell]))
            continue;
        s.refs += span.refs;
        s.chunkNs += static_cast<double>(span.durNs);
        s.children += span.children;
    }
    return s;
}

/** Simulated headline figures, from the first untraced pass. */
struct SimFigures
{
    double coveragePct = 0.0; //!< trace engine, LT-cords cells
    double ipcGainPct = 0.0;  //!< timing engine, LT-cords vs none
    double l1Mpki = 0.0;      //!< predictor-less cells
    /** Per-app LT-cords / none IPC ratio of the timing cells. */
    std::vector<std::pair<std::string, double>> ipcRatios;
};

SimFigures
simFigures(const RunData &run)
{
    SimFigures f;
    const WorkloadSpec &w = run.workload;
    const RepResult &rep = run.plain.front();
    double correct = 0.0;
    double opportunity = 0.0;
    double misses = 0.0;
    double insts = 0.0;
    std::vector<double> gains;
    for (std::size_t i = 0; i < w.cells.size(); i++) {
        const CellSpec &spec = w.cells[i];
        const CellResult &c = rep.cells[i];
        if (spec.pred != "none")
            continue;
        misses += windowDelta(c, [](const SimCounters &s) {
            return s.l1Misses;
        });
        insts += windowDelta(c, [](const SimCounters &s) {
            return s.instructions;
        });
        for (std::size_t j = 0; j < w.cells.size(); j++) {
            const CellSpec &other = w.cells[j];
            if (other.app != spec.app || other.pred != "lt-cords")
                continue;
            const CellResult &lt = rep.cells[j];
            if (spec.engine == Engine::Trace) {
                correct += windowDelta(lt, [](const SimCounters &s) {
                    return s.correct;
                });
                opportunity += windowDelta(c, [](const SimCounters &s) {
                    return s.l1Misses;
                });
            } else if (spec.engine == Engine::Timing) {
                const auto ipc = [](const CellResult &r) {
                    return ratio(
                        windowDelta(r, [](const SimCounters &s) {
                            return s.instructions;
                        }),
                        windowDelta(r, [](const SimCounters &s) {
                            return s.cycles;
                        }));
                };
                gains.push_back(ratio(ipc(lt), ipc(c)));
                f.ipcRatios.emplace_back(spec.app, gains.back());
            }
        }
    }
    f.coveragePct = 100.0 * ratio(correct, opportunity);
    if (!gains.empty()) {
        double log_sum = 0.0;
        for (double g : gains)
            log_sum += std::log(g);
        f.ipcGainPct =
            100.0 * (std::exp(log_sum / static_cast<double>(gains.size())) -
                     1.0);
    }
    f.l1Mpki = 1000.0 * ratio(misses, insts);
    return f;
}

double
failedPct(const RunData &run)
{
    const auto [attempted, failed] = cellTally(run);
    return 100.0 * ratio(static_cast<double>(failed),
                         static_cast<double>(attempted));
}

double
traceOverheadPct(const RunData &run)
{
    std::vector<double> plain;
    std::vector<double> traced;
    for (const RepResult &r : run.plain)
        plain.push_back(passWindowSeconds(r));
    for (const RepResult &r : run.traced)
        traced.push_back(passWindowSeconds(r));
    return 100.0 * (ratio(median(traced), median(plain)) - 1.0);
}

const char *
predKey(const std::string &pred)
{
    return pred == "lt-cords" ? "ltcords" : pred.c_str();
}

} // namespace

std::pair<std::uint64_t, std::uint64_t>
cellTally(const RunData &run)
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const auto *passes : {&run.plain, &run.traced}) {
        for (const RepResult &rep : *passes) {
            for (const CellResult &c : rep.cells) {
                attempted++;
                failed += c.failures.empty() ? 0 : 1;
            }
        }
    }
    return {attempted, failed};
}

std::vector<Metric>
endToEndMetrics(const RunData &run)
{
    return {
        {"steady_mrefs_per_s", filteredMrefs(run, false), "Mrefs/s"},
        {"warmup_mrefs_per_s", filteredMrefs(run, true), "Mrefs/s"},
        {"setup_s", median(run.setupSamples), "s"},
        {"peak_rss_mb", run.peakRssMb, "MB"},
        {"cells_passed_pct", 100.0 - failedPct(run), "%"},
        {"sim_l1_mpki", simFigures(run).l1Mpki, "misses/kinst"},
    };
}

std::vector<Metric>
perLayerMetrics(const RunData &run)
{
    const SpanCost &cost = run.spanCost;
    const WorkloadSpec &w = run.workload;
    const RepResult &rep = run.plain.front();
    std::vector<Metric> m;
    const auto add = [&m](std::string name, double value,
                          const char *unit) {
        m.push_back({std::move(name), value, unit});
    };

    const LayerSum all = layerSum(run, [](const CellSpec &) {
        return true;
    });
    add("trace.fill_ns_per_ref", all.perRef(all.childNs(Fill, cost)),
        "ns/ref");

    const LayerSum lt = layerSum(run, [](const CellSpec &s) {
        return s.pred == "lt-cords";
    });
    for (Layer l : {Observe, Feedback, PrefetchEviction, MetaDrain, SetNow})
        add(std::string("core.ltcords.") + layerName(l) + "_ns_per_ref",
            lt.perRef(lt.childNs(l, cost)), "ns/ref");
    const LayerSum ghb = layerSum(run, [](const CellSpec &s) {
        return s.pred == "ghb";
    });
    for (Layer l : {Observe, Feedback, MetaDrain})
        add(std::string("pred.ghb.") + layerName(l) + "_ns_per_ref",
            ghb.perRef(ghb.childNs(l, cost)), "ns/ref");

    const std::pair<Engine, const char *> engines[] = {
        {Engine::Trace, "trace_engine"}, {Engine::Timing, "timing_engine"}};
    for (const auto &[engine, name] : engines) {
        for (const char *pred : {"none", "lt-cords", "ghb"}) {
            if (engine == Engine::Timing && std::string(pred) == "ghb")
                continue;
            const LayerSum s = layerSum(run, [&](const CellSpec &c) {
                return c.engine == engine && c.pred == pred;
            });
            add(std::string("sim.") + name + "." + predKey(pred) +
                    ".self_ns_per_ref",
                s.perRef(s.selfNs(cost)), "ns/ref");
        }
    }
    const LayerSum sched = layerSum(run, [](const CellSpec &s) {
        return s.engine == Engine::Schedule;
    });
    add("sim.schedule.self_ns_per_ref", sched.perRef(sched.selfNs(cost)),
        "ns/ref");

    const std::vector<double> chunks = driftChunks(run, -1);
    add("sim.chunk_ns_per_ref_p50", percentile(chunks, 50), "ns/ref");
    add("sim.chunk_ns_per_ref_p90", percentile(chunks, 90), "ns/ref");
    add("sim.drift_ratio", driftRatio(run, -1), "ratio");

    // Simulated counts, summed over the cells' steady windows.
    const auto sum = [&](auto field, auto pick) {
        double total = 0.0;
        for (std::size_t i = 0; i < w.cells.size(); i++) {
            if (pick(w.cells[i]))
                total += windowDelta(rep.cells[i], field);
        }
        return total;
    };
    const auto every = [](const CellSpec &) { return true; };
    const auto isLt = [](const CellSpec &s) { return s.pred == "lt-cords"; };
    const auto isGhb = [](const CellSpec &s) { return s.pred == "ghb"; };
    const auto predSum = [&](const std::string &key, auto pick) {
        double total = 0.0;
        for (std::size_t i = 0; i < w.cells.size(); i++) {
            if (pick(w.cells[i]))
                total += predDelta(rep.cells[i], key);
        }
        return total;
    };

    add("cache.l1d.misses",
        sum([](const SimCounters &s) { return s.l1dMisses; }, every),
        "count");
    add("cache.l1d.evictions",
        sum([](const SimCounters &s) { return s.l1dEvictions; }, every),
        "count");
    add("cache.l1d.prefetch_fills",
        sum([](const SimCounters &s) { return s.l1dPrefetchFills; }, every),
        "count");
    add("cache.l2.misses",
        sum([](const SimCounters &s) { return s.l2CacheMisses; }, every),
        "count");
    add("sim.early", sum([](const SimCounters &s) { return s.early; }, every),
        "count");
    double mshr_peak = 0.0;
    for (const CellResult &c : rep.cells)
        mshr_peak =
            std::max(mshr_peak, static_cast<double>(c.atEnd.mshrPeak));
    add("cache.mshr.peak_occupancy", mshr_peak, "entries");
    add("cache.mshr.merges",
        sum([](const SimCounters &s) { return s.mshrMerges; }, every),
        "count");
    add("mem.membus_busy_cycles",
        sum([](const SimCounters &s) { return s.memBusBusy; }, every),
        "cycles");
    add("mem.queue_cycles",
        sum([](const SimCounters &s) { return s.queueCycles; }, every),
        "cycles");
    add("sim.prefetch_dropped",
        sum([](const SimCounters &s) { return s.dropped; }, every), "count");

    const double lookups = predSum("sigcache_lookups", isLt);
    add("core.ltcords.sigcache_hit_ratio",
        ratio(predSum("sigcache_hits", isLt), lookups), "ratio");
    add("core.ltcords.sigcache_lookups", lookups, "count");
    const double predictions = predSum("predictions", isLt);
    add("core.ltcords.prediction_accuracy",
        ratio(sum([](const SimCounters &s) { return s.correct; }, isLt),
              predictions),
        "ratio");
    add("core.ltcords.predictions", predictions, "count");
    const double observed = predSum("misses_observed", isGhb);
    add("pred.ghb.delta_match_ratio",
        ratio(predSum("delta_matches", isGhb), observed), "ratio");
    add("pred.ghb.misses_observed", observed, "count");
    add("core.ltcords.signatures_streamed",
        predSum("signatures_streamed", isLt), "count");
    double frames = 0.0;
    for (std::size_t i = 0; i < w.cells.size(); i++) {
        if (isLt(w.cells[i]))
            frames += rep.cells[i].atEnd.predStat("frames_in_use");
    }
    add("core.ltcords.frames_in_use", frames, "count");

    add("trace_overhead_pct", traceOverheadPct(run), "%");
    const SimFigures sim = simFigures(run);
    add("sim_coverage_pct", sim.coveragePct, "%");
    add("sim_ipc_gain_pct", sim.ipcGainPct, "%");
    add("failed_cells_pct", failedPct(run), "%");
    return m;
}

void
printReport(const RunData &run)
{
    const WorkloadSpec &w = run.workload;
    std::printf("\ncells (medians over %zu untraced passes; host time)\n",
                run.plain.size());
    std::printf("  %-24s %9s %12s %12s %9s %9s %7s  %s\n", "cell",
                "setup_ms", "warm_Mref/s", "steady_Mref/s", "p50_ns/ref",
                "p90_ns/ref", "drift", "digest");
    for (std::size_t i = 0; i < w.cells.size(); i++) {
        std::vector<double> setup;
        std::vector<double> warm;
        std::vector<double> steady;
        for (const RepResult &rep : run.plain) {
            const CellResult &c = rep.cells[i];
            setup.push_back(c.setupS * 1e3);
            warm.push_back(
                ratio(static_cast<double>(c.warm.refs), c.warm.seconds) / 1e6);
            steady.push_back(
                ratio(static_cast<double>(c.steady.refs), c.steady.seconds) /
                1e6);
        }
        const auto idx = static_cast<std::int64_t>(i);
        const std::vector<double> chunks = driftChunks(run, idx);
        std::printf("  %-24s %9.3f %12.3f %12.3f %9.1f %9.1f %7.3f  "
                    "%016llx\n",
                    w.cells[i].label().c_str(), median(setup), median(warm),
                    median(steady), percentile(chunks, 50),
                    percentile(chunks, 90), driftRatio(run, idx),
                    static_cast<unsigned long long>(
                        run.plain.front().cells[i].digest));
    }
    std::printf("  (drift = mean chunk time of the window's last quarter "
                "/ its first quarter; > 1 means the cell still slows)\n");
    std::printf("  steady Mrefs/s per untraced pass (unfiltered):");
    for (const RepResult &rep : run.plain)
        std::printf(" %.3f", passMrefs(rep, false));
    std::printf("\n  warm-up Mrefs/s per untraced pass (unfiltered):");
    for (const RepResult &rep : run.plain)
        std::printf(" %.3f", passMrefs(rep, true));
    std::printf("\n");

    for (const auto *passes : {&run.plain, &run.traced}) {
        for (const RepResult &rep : *passes) {
            for (std::size_t i = 0; i < rep.cells.size(); i++) {
                for (const std::string &f : rep.cells[i].failures)
                    std::printf("FAILED %s%s: %s\n",
                                w.cells[i].label().c_str(),
                                rep.traced ? " (traced)" : "", f.c_str());
            }
        }
    }

    if (!run.traced.empty()) {
        const SpanCost &cost = run.spanCost;
        std::printf("\nlayers per cell (traced passes, ns/ref of the "
                    "steady window). Span cost subtracted: %.1f ns inside "
                    "each child span\n  (calibrated %.1f, capped at the "
                    "cheapest observed span), %.1f ns per span in total\n",
                    cost.emptySpanNs, run.calibratedSpanCost.emptySpanNs,
                    cost.perSpanNs);
        std::printf("  %-24s %8s %8s", "cell", "chunk", "self");
        for (unsigned l = 0; l < NumLayers; l++)
            std::printf(" %10.10s", layerName(static_cast<Layer>(l)));
        std::printf("  top\n");
        for (std::size_t i = 0; i < w.cells.size(); i++) {
            const LayerSum s = layerSum(run, [&](const CellSpec &c) {
                return &c == &w.cells[i];
            });
            const double chunk = s.perRef(s.chunkNs);
            const double self = s.perRef(s.selfNs(cost));
            std::printf("  %-24s %8.1f %8.1f", w.cells[i].label().c_str(),
                        chunk, self);
            std::string top = "engine self";
            double top_ns = self;
            for (unsigned l = 0; l < NumLayers; l++) {
                const double ns =
                    s.perRef(s.childNs(static_cast<Layer>(l), cost));
                std::printf(" %10.1f", ns);
                if (ns > top_ns) {
                    top_ns = ns;
                    top = layerName(static_cast<Layer>(l));
                }
            }
            std::printf("  %s (%.0f%%)\n", top.c_str(),
                        100.0 * ratio(top_ns, chunk));
        }
        std::printf("  traced steady windows took %+.1f%% of the untraced "
                    "ones\n",
                    traceOverheadPct(run));
    }

    const SimFigures sim = simFigures(run);
    const auto [attempted, failed] = cellTally(run);
    std::printf("\nend-to-end (%s)\n", w.name.c_str());
    for (const Metric &m : endToEndMetrics(run))
        std::printf("  %-22s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-22s %14.4f %% (%llu of %llu cell runs)\n",
                "failed_cells_pct", failedPct(run),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    bool trace_cells = false;
    bool timing_cells = false;
    for (const CellSpec &c : w.cells) {
        trace_cells |= c.engine == Engine::Trace;
        timing_cells |= c.engine == Engine::Timing;
    }
    if (trace_cells)
        std::printf("  %-22s %14.4f %% (simulated)\n", "sim_coverage_pct",
                    sim.coveragePct);
    if (timing_cells) {
        std::printf("  %-22s %14.4f %% (simulated; geomean of",
                    "sim_ipc_gain_pct", sim.ipcGainPct);
        for (const auto &[app, r] : sim.ipcRatios)
            std::printf(" %s %+.1f%%", app.c_str(), 100.0 * (r - 1.0));
        std::printf(")\n");
    }
    std::printf("  Simulated figures come from an unvalidated model: the "
                "workloads are scaled\n  synthetic stand-ins, so the "
                "paper's 69%% coverage and +60%% speedup are\n  context, "
                "not a reference for an error figure.\n");
}

bool
writeSpans(const RunData &run, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "rep\tcell\tchunk\tstart_ns\tdur_ns\trefs";
    for (unsigned l = 0; l < NumLayers; l++)
        out << '\t' << layerName(static_cast<Layer>(l)) << "_ns\t"
            << layerName(static_cast<Layer>(l)) << "_calls";
    out << '\n';
    for (const ChunkSpan &s : run.spans.spans) {
        out << s.rep << '\t' << run.workload.cells[s.cell].label() << '\t'
            << s.chunk << '\t' << s.startNs << '\t' << s.durNs << '\t'
            << s.refs;
        for (unsigned l = 0; l < NumLayers; l++)
            out << '\t' << s.children.ns[l] << '\t' << s.children.calls[l];
        out << '\n';
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
