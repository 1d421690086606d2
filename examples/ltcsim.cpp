/**
 * @file
 * ltcsim — command-line driver for the library: run any workload
 * against any predictor on either engine, with the paper's machine
 * or overrides.
 *
 *   ltcsim --list
 *   ltcsim --workload mcf --predictor lt-cords --engine trace
 *   ltcsim --workload swim --predictor ghb --engine timing \
 *          --refs 2m --l2 4mb --seed 7
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "sim/experiment.hh"
#include "sim/timing_engine.hh"
#include "sim/trace_engine.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/stats.hh"

namespace
{

using namespace ltc;

struct Options
{
    std::string workload = "mcf";
    std::string predictor = "lt-cords";
    std::string engine = "trace"; // trace | timing
    std::uint64_t refs = 0;       // 0 = suggested
    std::uint64_t seed = 1;
    double scale = 1.0;
    bool perfectL1 = false;
    bool bigL2 = false;
    bool list = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: ltcsim [--list]\n"
        "              [--workload NAME] [--predictor NAME]\n"
        "              [--engine trace|timing] [--refs N[k|m|g]]\n"
        "              [--seed N] [--scale F] [--perfect-l1]"
        " [--l2 4mb]\n");
    std::exit(1);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--list")
            opt.list = true;
        else if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--predictor")
            opt.predictor = value();
        else if (arg == "--engine")
            opt.engine = value();
        else if (arg == "--refs")
            opt.refs = parseCount("--refs", value(), 1,
                                  std::numeric_limits<std::uint64_t>::max(),
                                  CountSuffix::Kmg);
        else if (arg == "--seed")
            opt.seed = parseCount("--seed", value(), 0,
                                  std::numeric_limits<std::uint64_t>::max(),
                                  CountSuffix::None);
        else if (arg == "--scale")
            opt.scale = std::strtod(value().c_str(), nullptr);
        else if (arg == "--perfect-l1")
            opt.perfectL1 = true;
        else if (arg == "--l2" && value() == "4mb")
            opt.bigL2 = true;
        else
            usage();
    }
    return opt;
}

void
listEverything()
{
    std::printf("workloads:\n");
    for (const auto &info : workloadCatalog()) {
        std::printf("  %-9s %-8s %s\n", info.name.c_str(),
                    suiteName(info.suite), info.description.c_str());
    }
    // File-backed workloads discovered via LTC_TRACE_DIR, if any.
    for (const auto &w : fileWorkloads()) {
        std::printf("  %-9s %-8s %s\n", w.info.name.c_str(),
                    suiteName(w.info.suite),
                    w.info.description.c_str());
    }
    std::printf("\npredictors:\n");
    for (const auto &name : predictorNames())
        std::printf("  %s\n", name.c_str());
    std::printf("\nengines: trace (coverage), timing (IPC)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ltc;
    const Options opt = parse(argc, argv);
    if (opt.list) {
        listEverything();
        return 0;
    }
    if (!isWorkload(opt.workload))
        ltc_fatal("unknown workload '", opt.workload,
                  "' (try --list)");

    HierarchyConfig hier = opt.perfectL1 ? perfectL1Hierarchy()
        : opt.bigL2                      ? bigL2Hierarchy()
                                         : paperHierarchy();
    const std::uint64_t refs =
        opt.refs ? opt.refs : suggestedRefs(opt.workload);

    std::printf("workload=%s predictor=%s engine=%s refs=%llu\n\n",
                opt.workload.c_str(), opt.predictor.c_str(),
                opt.engine.c_str(),
                static_cast<unsigned long long>(refs));

    if (opt.engine == "trace") {
        auto pred = makePredictor(opt.predictor, hier);
        auto src = makeWorkload(opt.workload, opt.seed, opt.scale);
        const CoverageStats s =
            runWithOpportunity(hier, pred.get(), *src, refs);
        std::printf("opportunity  %llu\n",
                    static_cast<unsigned long long>(s.opportunity));
        std::printf("coverage     %.1f%%\n", 100.0 * s.coverage());
        std::printf("incorrect    %llu\n",
                    static_cast<unsigned long long>(s.incorrect()));
        std::printf("train        %llu\n",
                    static_cast<unsigned long long>(s.train()));
        std::printf("early        %llu\n",
                    static_cast<unsigned long long>(s.early));
        std::printf("L1 miss rate %.1f%%\n", 100.0 * s.l1MissRate());
        if (pred) {
            StatSet internals(pred->name());
            pred->exportStats(internals);
            std::printf("\n%s", internals.dump().c_str());
        }
    } else if (opt.engine == "timing") {
        TimingConfig cfg = paperTiming();
        cfg.hier = hier;
        auto pred = makePredictor(opt.predictor, hier,
                                  /*model_stream_latency=*/true);
        TimingSim sim(cfg, pred.get());
        auto src = makeWorkload(opt.workload, opt.seed, opt.scale);
        sim.run(*src, refs);
        const TimingStats s = sim.stats();
        std::printf("cycles       %llu\n",
                    static_cast<unsigned long long>(s.cycles));
        std::printf("instructions %llu\n",
                    static_cast<unsigned long long>(s.instructions));
        std::printf("IPC          %.3f\n", s.ipc);
        std::printf("L1 misses    %llu (covered %llu, partial %llu)\n",
                    static_cast<unsigned long long>(s.l1Misses),
                    static_cast<unsigned long long>(s.correct),
                    static_cast<unsigned long long>(s.partial));
        std::printf("traffic B/I  base=%.2f incorrect=%.2f "
                    "seq-create=%.2f seq-fetch=%.2f\n",
                    s.bytesPerInstruction(Traffic::BaseData),
                    s.bytesPerInstruction(Traffic::IncorrectPrefetch),
                    s.bytesPerInstruction(Traffic::SequenceCreate),
                    s.bytesPerInstruction(Traffic::SequenceFetch));
    } else {
        usage();
    }
    return 0;
}
