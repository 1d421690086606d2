/**
 * @file
 * Bring-your-own-trace: build a reference stream programmatically
 * (or load one from a file captured elsewhere), stream it into the
 * .ltct v2 container, demonstrate v1 -> v2 conversion, reload it,
 * analyse its temporal correlation, and run LT-cords over it.
 *
 *   $ ./custom_trace [path.ltct]   # analyse an existing trace file
 *
 * Accepts v1 or v2 containers; see docs/TRACE_FORMAT.md and the
 * ltc-trace CLI for recording, converting (including ChampSim
 * imports) and inspecting containers from the shell.
 */

#include <cstdio>
#include <memory>
#include <string>

#include "analysis/correlation.hh"
#include "core/ltcords.hh"
#include "sim/experiment.hh"
#include "sim/trace_engine.hh"
#include "trace/file_trace.hh"
#include "trace/primitives.hh"
#include "trace/trace_io.hh"

int
main(int argc, char **argv)
{
    using namespace ltc;

    std::string path;
    if (argc > 1) {
        path = argv[1];
    } else {
        // Synthesise a demo trace: a loop nest touching two arrays
        // plus a short pointer walk, repeated 8 times.
        path = "custom_demo_trace.ltct";
        std::vector<ScanArray> arrays;
        ScanArray a;
        a.base = 0x10000000;
        a.blocks = 4096;
        a.accessesPerBlock = 2;
        a.pc = 0x1000;
        arrays.push_back(a);
        auto scan = std::make_unique<StridedScanSource>(arrays, 2);

        PointerChaseParams p;
        p.base = 0x20000000;
        p.nodes = 4096;
        p.seed = 7;
        auto chase = std::make_unique<PointerChaseSource>(p);

        std::vector<std::unique_ptr<TraceSource>> kids;
        kids.push_back(std::move(scan));
        kids.push_back(std::move(chase));
        InterleaveSource mixed(std::move(kids), {4, 1});

        // Stream straight to the v2 container: no in-memory copy of
        // the whole trace is needed, however long the capture.
        std::uint64_t written = 0;
        TraceErrc errc = captureToFile(mixed, path, 8 * 5 * 4096,
                                       &written);
        if (errc != TraceErrc::Ok) {
            std::fprintf(stderr, "capture failed: %s\n",
                         traceErrcMessage(errc));
            return 1;
        }
        std::printf("wrote %llu references to %s\n",
                    static_cast<unsigned long long>(written),
                    path.c_str());

        // Round-trip the same stream through the legacy v1 format to
        // show the conversion path (ltc-trace convert does the same,
        // and also imports ChampSim instruction traces).
        const std::string v1_path = "custom_demo_trace_v1.bin";
        errc = writeTraceFileV1(v1_path, readTraceFile(path));
        if (errc == TraceErrc::Ok)
            errc = convertTraceFile(v1_path,
                                    "custom_demo_trace_conv.ltct");
        if (errc != TraceErrc::Ok) {
            std::fprintf(stderr, "conversion failed: %s\n",
                         traceErrcMessage(errc));
            return 1;
        }
        TraceFileInfo info;
        if (probeTraceFile(path, info) == TraceErrc::Ok) {
            std::printf("v2 container: %llu bytes in %llu chunks "
                        "(%.1fx smaller than v1)\n",
                        static_cast<unsigned long long>(info.fileBytes),
                        static_cast<unsigned long long>(info.chunks),
                        info.compressionVsV1());
        }
    }

    FileTrace trace(path);
    std::printf("loaded %zu references from %s\n\n", trace.size(),
                path.c_str());

    // Temporal-correlation profile (is this trace LT-cords
    // friendly?).
    CorrelationAnalysis ca(CacheConfig::l1d());
    ca.run(trace, trace.size());
    auto corr = ca.finish();
    std::printf("miss-stream profile:\n");
    std::printf("  misses               : %llu\n",
                static_cast<unsigned long long>(corr.misses));
    std::printf("  perfectly correlated : %.1f%%\n",
                100.0 * corr.perfectFraction());
    std::printf("  uncorrelated         : %.1f%%\n",
                100.0 * corr.uncorrelatedFraction());
    std::printf("  last-touch reorder p98: %llu\n\n",
                static_cast<unsigned long long>(
                    corr.lastTouchDistance.percentile(0.98)));

    // Run LT-cords over the trace.
    trace.reset();
    LtCords ltcords(paperLtcords(paperHierarchy()));
    auto stats = runWithOpportunity(paperHierarchy(), &ltcords, trace,
                                    trace.size());
    std::printf("LT-cords on this trace:\n");
    std::printf("  opportunity: %llu misses\n",
                static_cast<unsigned long long>(stats.opportunity));
    std::printf("  coverage   : %.1f%%\n", 100.0 * stats.coverage());
    std::printf("  incorrect  : %.1f%%  early: %.1f%%\n",
                stats.opportunity
                    ? 100.0 * static_cast<double>(stats.incorrect()) /
                        static_cast<double>(stats.opportunity)
                    : 0.0,
                stats.opportunity
                    ? 100.0 * static_cast<double>(stats.early) /
                        static_cast<double>(stats.opportunity)
                    : 0.0);
    return 0;
}
