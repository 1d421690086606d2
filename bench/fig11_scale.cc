/**
 * @file
 * Figure 11 scaled out: LT-cords under 2 to 1024 co-scheduled
 * tenants.
 *
 * The paper's multi-programmed study (Section 5.5) stops at pairs;
 * this sweep pushes the same shared-predictor setup through the
 * batched multi-tenant engine loop (TraceEngine::runSchedule) to a
 * thousand tenants with deterministic churn (arrivals, deaths and
 * out-of-order context swaps drawn from the cell seed), and contrasts
 * the shared signature cache against per-tenant set-slice
 * partitioning (LtcordsConfig::sigCachePartitions). Tracked per cell:
 * aggregate coverage, bus overhead (Fig. 12's categories over base
 * data) and cross-tenant sequence-storage interference.
 *
 * Knobs: LTC_TENANTS (comma-separated tenant counts, default
 * "2,8,64,256,1024") on top of the usual LTC_REFS / LTC_JSON /
 * LTC_CELL_CACHE set.
 */

#include <array>
#include <cstdlib>
#include <limits>

#include "bench_common.hh"
#include "core/ltcords.hh"
#include "sim/experiment.hh"
#include "sim/multiprog.hh"
#include "util/parse.hh"

using namespace ltc;

namespace
{

/** Tenant counts to sweep (LTC_TENANTS override, each >= 2). */
std::vector<std::uint32_t>
tenantCounts()
{
    const char *env = std::getenv("LTC_TENANTS");
    if (!env)
        return {2, 8, 64, 256, 1024};
    const std::string list = env;
    std::vector<std::uint32_t> counts;
    for (std::size_t start = 0;;) {
        const std::size_t comma = list.find(',', start);
        counts.push_back(static_cast<std::uint32_t>(parseCount(
            "LTC_TENANTS", list.substr(start, comma - start), 2,
            std::numeric_limits<std::uint32_t>::max(), CountSuffix::None)));
        if (comma == std::string::npos)
            return counts;
        start = comma + 1;
    }
}

/** One scaled Fig. 11 cell: n tenants, shared or partitioned. */
void
runScaleCell(const HierarchyConfig &hier, std::uint32_t n,
             const RunCell &cell, RunResult &r)
{
    const bool partitioned = cell.config == "part";

    MultiProgConfig cfg;
    cfg.hier = hier;
    // Tenant mix: the chase/stream-heavy quartet, cycling, each with
    // its own seed (distinct layouts) and a footprint that shrinks as
    // the tenant count grows so the sweep's total memory stays
    // bounded.
    static constexpr std::array<const char *, 4> mix = {
        "mcf", "em3d", "gcc", "swim"};
    const double scale = n <= 8 ? 1.0 : (n <= 64 ? 0.5 : 0.25);
    std::vector<std::unique_ptr<TraceSource>> apps;
    for (std::uint32_t i = 0; i < n; i++)
        apps.push_back(
            makeWorkload(mix[i & 3], /*seed=*/i + 1, scale));

    // Constant total work regardless of tenant count: every tenant
    // is scheduled ~4 rounds, so quanta shrink as tenants multiply
    // (the regime the batched engine loop exists for).
    const std::uint64_t total = refBudget(2'000'000);
    cfg.switches = static_cast<std::uint64_t>(n) * 4;
    cfg.quantumRefs.assign(
        n, std::max<std::uint64_t>(64, total / cfg.switches));
    cfg.churnSeed = cell.seed;

    LtcordsConfig lc = paperLtcords(hier, false);
    lc.sigCachePartitions = partitioned ? n : 1;
    LtCords pred(lc);

    const auto stats = runMultiProg(cfg, &pred, std::move(apps));

    std::uint64_t correct = 0;
    std::uint64_t opportunity = 0;
    std::uint64_t base_bytes = 0;
    std::uint64_t over_bytes = 0;
    for (const CoverageStats &s : stats) {
        correct += s.correct;
        opportunity += s.opportunity;
        base_bytes += s.traffic.bytes(Traffic::BaseData);
        over_bytes += s.traffic.bytes(Traffic::IncorrectPrefetch) +
            s.traffic.bytes(Traffic::SequenceCreate) +
            s.traffic.bytes(Traffic::SequenceFetch);
    }
    r.set("coverage", opportunity
        ? static_cast<double>(correct) /
            static_cast<double>(opportunity)
        : 0.0);
    r.set("bus_overhead", base_bytes
        ? static_cast<double>(over_bytes) /
            static_cast<double>(base_bytes)
        : 0.0);
    r.set("cross_tenant_conflicts",
          static_cast<double>(pred.storage().crossTenantConflicts()));
    r.set("frames_in_use",
          static_cast<double>(pred.storage().framesInUse()));
}

} // namespace

int
main(int argc, char **argv)
{
    ResultSink sink("fig11_scale", argc, argv);
    ExperimentRunner runner;

    const std::vector<std::uint32_t> counts = tenantCounts();
    std::vector<std::string> labels;
    for (std::uint32_t n : counts) {
        std::string label = "t";
        label += std::to_string(n);
        labels.push_back(std::move(label));
    }
    const std::vector<std::string> configs = {"shared", "part"};
    auto cells = ExperimentRunner::cross(labels, configs);

    // One geometry for the whole sweep.
    const HierarchyConfig hier = paperHierarchy();

    auto results = sink.run(
        runner, cells,
        [&](const RunCell &cell, RunResult &r) {
            const std::size_t which =
                ExperimentRunner::workloadIndex(cell, configs.size());
            runScaleCell(hier, counts[which], cell, r);
        });

    Table table("Figure 11 scaled: LT-cords coverage vs tenant count");
    table.setHeader({"tenants", "sig cache", "coverage",
                     "bus overhead", "x-tenant conflicts"});
    for (const auto &r : results) {
        table.addRow({r.cell.workload.substr(1),
                      r.cell.config == "part" ? "partitioned"
                                              : "shared",
                      Table::pct(r.get("coverage")),
                      Table::pct(r.get("bus_overhead")),
                      Table::num(r.get("cross_tenant_conflicts"), 0)});
    }
    sink.table(table);

    const auto &last_shared = results[results.size() - 2];
    const auto &last_part = results.back();
    std::string note = "at ";
    note += last_shared.cell.workload.substr(1);
    note += " tenants: coverage ";
    note += Table::pct(last_shared.get("coverage"));
    note += " shared vs ";
    note += Table::pct(last_part.get("coverage"));
    note += " partitioned; conflicts ";
    note += Table::num(last_shared.get("cross_tenant_conflicts"), 0);
    note += " vs ";
    note += Table::num(last_part.get("cross_tenant_conflicts"), 0);
    sink.note(note);
    sink.add(std::move(results));
    return sink.finish();
}
