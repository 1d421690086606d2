/**
 * @file
 * Quickstart: attach LT-cords to the paper's cache hierarchy, run a
 * workload through the trace engine, and read out coverage.
 *
 *   $ ./quickstart [workload] [refs]
 */

#include <cstdio>
#include <limits>
#include <string>

#include "core/ltcords.hh"
#include "sim/experiment.hh"
#include "sim/trace_engine.hh"
#include "trace/workloads.hh"
#include "util/parse.hh"
#include "util/stats.hh"

int
main(int argc, char **argv)
{
    using namespace ltc;

    const std::string workload = argc > 1 ? argv[1] : "mcf";
    const std::uint64_t refs = argc > 2
        ? parseCount("refs", argv[2], 1,
                     std::numeric_limits<std::uint64_t>::max(),
                     CountSuffix::Kmg)
        : suggestedRefs(workload);

    // 1. The simulated machine: Table 1's 64KB L1D + 1MB L2.
    const HierarchyConfig hier = paperHierarchy();

    // 2. The predictor: LT-cords with the Section 5.6 configuration
    //    (32K-entry signature cache, 4K off-chip frames).
    LtCords ltcords(paperLtcords(hier));
    std::printf("LT-cords on-chip budget: %.0f KB (paper: ~214KB)\n",
                static_cast<double>(ltcords.onChipBytes()) / 1024.0);

    // 3. A workload: one of the 28 synthetic SPEC/Olden stand-ins.
    auto source = makeWorkload(workload);
    std::printf("workload: %s (%s) -- %s\n", workload.c_str(),
                suiteName(workloadInfo(workload).suite),
                workloadInfo(workload).description.c_str());

    // 4. Run: a baseline pass measures prediction opportunity, then
    //    the predictor pass classifies every miss.
    const CoverageStats stats =
        runWithOpportunity(hier, &ltcords, *source, refs);

    std::printf("\nreferences simulated : %llu\n",
                static_cast<unsigned long long>(stats.accesses));
    std::printf("baseline L1D misses  : %llu\n",
                static_cast<unsigned long long>(stats.opportunity));
    std::printf("misses eliminated    : %llu (%.1f%% coverage)\n",
                static_cast<unsigned long long>(stats.correct),
                100.0 * stats.coverage());
    std::printf("incorrect predictions: %llu\n",
                static_cast<unsigned long long>(stats.incorrect()));
    std::printf("early evictions      : %llu\n",
                static_cast<unsigned long long>(stats.early));

    // 5. Predictor internals.
    StatSet internals("lt-cords");
    ltcords.exportStats(internals);
    std::printf("\npredictor internals:\n%s", internals.dump().c_str());
    return 0;
}
