/**
 * @file
 * Steady-state simulator benchmark: the ltc_perfbench program.
 *
 *   ltc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                 [--spans <path>] [--cell <label substring>]
 *
 * Single process, single thread. Builds every input from --seed, runs
 * the workload's cells serially (see bench.hh), repeats whole passes
 * while the --seconds budget allows (at least one), checks every cell
 * (see checkOpportunity and the accounting in cells.cc, the digests
 * below), prints a report and, as the last line, one JSON object with
 * the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1, which adds one traced pass per untraced pass).
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

/** Set-up-only builds before the measured passes (setup_s samples). */
constexpr int kSetupSamples = 15;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
    std::string cell;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "ltc_perfbench: %s\nusage: ltc_perfbench --workload "
                 "<name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>] [--cell <label substring>]\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value, &end);
            if (!(o.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            o.trace = std::strcmp(value, "1") == 0;
            if (!o.trace && std::strcmp(value, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (flag == "--spans") {
            o.spans = value;
        } else if (flag == "--cell") {
            o.cell = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("malformed number for " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

double
setupSeconds(const RepResult &rep)
{
    double s = 0.0;
    for (const CellResult &c : rep.cells)
        s += c.setupS;
    return s;
}

/** Fail every cell of @p rep whose digest differs from @p ref's. */
void
compareDigests(const RepResult &ref, RepResult &rep, const char *what)
{
    for (std::size_t i = 0; i < rep.cells.size(); i++) {
        if (rep.cells[i].digest != ref.cells[i].digest)
            rep.cells[i].failures.push_back(
                std::string("simulated digest differs from the first "
                            "untraced pass (") +
                what + ")");
    }
}

void
printJson(const std::vector<Metric> &metrics, std::uint64_t attempted,
          std::uint64_t failed)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); i++) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    RunData run;
    run.workload = makeWorkloadSpec(o.workload, o.seed);
    if (run.workload.cells.empty())
        usage(("unknown workload " + o.workload).c_str());
    if (!o.cell.empty()) {
        std::erase_if(run.workload.cells, [&o](const CellSpec &c) {
            return c.label().find(o.cell) == std::string::npos;
        });
        if (run.workload.cells.empty())
            usage(("no cell matches " + o.cell).c_str());
    }

    std::printf("ltc_perfbench: workload %s, seed %llu, %.0f s budget, "
                "trace %d, %zu cells\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, run.workload.cells.size());
    std::fflush(stdout);

    CpuPicker cpu;
    const std::int64_t start = nowNs();
    if (o.trace)
        run.calibratedSpanCost = calibrateSpanCost();
    for (int k = 0; k < kSetupSamples; k++)
        run.setupSamples.push_back(setupOnly(run.workload, cpu));

    // Whole passes while the budget allows; a traced run pairs each
    // untraced pass with a traced one.
    for (;;) {
        const std::int64_t r0 = nowNs();
        run.plain.push_back(runRep(run.workload, nullptr, cpu));
        double round = secondsSince(r0);
        run.setupSamples.push_back(setupSeconds(run.plain.back()));
        if (run.plain.size() == 1) {
            checkOpportunity(run.workload, run.plain.front());
        } else {
            compareDigests(run.plain.front(), run.plain.back(),
                           "repeated pass");
        }
        if (o.trace) {
            const std::int64_t t0 = nowNs();
            run.spans.rep = static_cast<std::uint32_t>(run.traced.size());
            run.traced.push_back(runRep(run.workload, &run.spans, cpu));
            compareDigests(run.plain.front(), run.traced.back(),
                           "traced pass");
            round += secondsSince(t0);
        }
        if (secondsSince(start) + round > o.seconds)
            break;
    }

    run.spanCost = capSpanCost(run.calibratedSpanCost, run.spans.spans,
                               run.workload.cells.size());

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    run.peakRssMb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

    printReport(run);
    if (!o.spans.empty()) {
        if (writeSpans(run, o.spans))
            std::printf("spans: %zu chunk spans written to %s\n",
                        run.spans.spans.size(), o.spans.c_str());
        else
            std::fprintf(stderr, "ltc_perfbench: cannot write %s\n",
                         o.spans.c_str());
    }
    std::printf("measured for %.1f s; thread re-pinned %zu times to the "
                "least-disturbed CPU (median probe %.1f us)\n",
                secondsSince(start), cpu.picks(),
                cpu.medianProbeNs() * 1e-3);

    const auto [attempted, failed] = cellTally(run);
    printJson(o.trace ? perLayerMetrics(run) : endToEndMetrics(run),
              attempted, failed);
    return 0;
}
