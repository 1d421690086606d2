/**
 * @file
 * ltc-trace: command-line tool for .ltct trace containers.
 *
 *   ltc-trace record <workload> <out.ltct> [refs] [--seed N]
 *             [--scale F] [--chunk N]
 *       Capture a synthetic workload generator to a v2 container.
 *
 *   ltc-trace convert <in> <out.ltct> [--champsim] [--limit N]
 *             [--chunk N]
 *       Re-encode a v1/v2 container as v2, or import an uncompressed
 *       ChampSim binary instruction trace (auto-detected unless
 *       --champsim forces it).
 *
 *   ltc-trace info <file.ltct>
 *       Header, chunk and size summary, including the size of the
 *       equivalent v1 encoding and the compression ratio.
 *
 *   ltc-trace head <file.ltct> [count]
 *       Print the first records (default 10) as text.
 *
 * All failures exit with status 1 and a message on stderr.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "trace/file_trace.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace
{

using namespace ltc;

[[noreturn]] void
usage()
{
    std::fputs(
        "usage: ltc-trace <command> [args]\n"
        "  record <workload> <out.ltct> [refs] [--seed N] [--scale F]"
        " [--chunk N]\n"
        "  convert <in> <out.ltct> [--champsim] [--limit N]"
        " [--chunk N]\n"
        "  info <file.ltct>\n"
        "  head <file.ltct> [count]\n"
        "workloads: any name from the catalogue (e.g. mcf, swim) or\n"
        "a trace:<stem> name discovered via LTC_TRACE_DIR.\n",
        stderr);
    std::exit(1);
}

[[noreturn]] void
die(const std::string &what, TraceErrc errc)
{
    std::fprintf(stderr, "ltc-trace: %s: %s (%s)\n", what.c_str(),
                 traceErrcMessage(errc), traceErrcName(errc));
    std::exit(1);
}

/** A count in [0, 2^64) for @p knob; exits 1 naming it otherwise. */
std::uint64_t
parseU64(const std::string &text, const char *knob)
{
    return parseCount(knob, text, 0,
                      std::numeric_limits<std::uint64_t>::max(),
                      CountSuffix::None);
}

/** Options shared by record/convert. */
struct Options
{
    std::uint64_t seed = 1;
    double scale = 1.0;
    std::uint32_t chunk = defaultChunkRecords;
    std::uint64_t limit = 0;
    bool champsim = false;
    std::vector<std::string> positional;
};

Options
parseOptions(int argc, char **argv, int first)
{
    Options opt;
    for (int i = first; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "ltc-trace: %s requires a value\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--seed") {
            opt.seed = parseU64(value(), "--seed");
        } else if (arg == "--scale") {
            opt.scale = std::atof(value().c_str());
        } else if (arg == "--chunk") {
            opt.chunk = static_cast<std::uint32_t>(parseCount(
                "--chunk", value(), 1, 1u << 24, CountSuffix::None));
        } else if (arg == "--limit") {
            opt.limit = parseU64(value(), "--limit");
        } else if (arg == "--champsim") {
            opt.champsim = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "ltc-trace: unknown option '%s'\n",
                         arg.c_str());
            std::exit(1);
        } else {
            opt.positional.push_back(arg);
        }
    }
    return opt;
}

int
printInfo(const std::string &path)
{
    TraceFileInfo info;
    const TraceErrc errc = probeTraceFile(path, info);
    if (errc != TraceErrc::Ok)
        die(path, errc);
    std::printf("file            : %s\n", path.c_str());
    std::printf("version         : %u\n", info.version);
    std::printf("records         : %llu\n",
                static_cast<unsigned long long>(info.records));
    if (info.version >= 2) {
        std::printf("chunks          : %llu (capacity %u records)\n",
                    static_cast<unsigned long long>(info.chunks),
                    info.chunkRecords);
        std::printf("payload bytes   : %llu\n",
                    static_cast<unsigned long long>(info.payloadBytes));
    }
    std::printf("file bytes      : %llu (%.2f bytes/record)\n",
                static_cast<unsigned long long>(info.fileBytes),
                info.records ? static_cast<double>(info.fileBytes) /
                        static_cast<double>(info.records)
                             : 0.0);
    std::printf("v1 equivalent   : %llu bytes\n",
                static_cast<unsigned long long>(
                    info.v1EquivalentBytes()));
    std::printf("ratio vs v1     : %.2fx\n", info.compressionVsV1());
    return 0;
}

int
cmdRecord(const Options &opt)
{
    if (opt.positional.size() < 2 || opt.positional.size() > 3)
        usage();
    const std::string &workload = opt.positional[0];
    const std::string &out = opt.positional[1];
    if (!isWorkload(workload))
        ltc_fatal("unknown workload '", workload, "'");
    const std::uint64_t refs = opt.positional.size() == 3
        ? parseU64(opt.positional[2], "refs")
        : suggestedRefs(workload);

    auto src = makeWorkload(workload, opt.seed, opt.scale);
    std::uint64_t written = 0;
    const TraceErrc errc =
        captureToFile(*src, out, refs, &written, opt.chunk);
    if (errc != TraceErrc::Ok)
        die(out, errc);
    std::printf("recorded %llu references of %s\n",
                static_cast<unsigned long long>(written),
                workload.c_str());
    return printInfo(out);
}

int
cmdConvert(const Options &opt)
{
    if (opt.positional.size() != 2)
        usage();
    const std::string &in = opt.positional[0];
    const std::string &out = opt.positional[1];

    bool champsim = opt.champsim;
    if (!champsim) {
        // Auto-detect: an LTCTRACE magic means container conversion;
        // anything else is treated as a ChampSim instruction trace.
        std::FILE *f = std::fopen(in.c_str(), "rb");
        if (!f)
            die(in, TraceErrc::OpenFailed);
        char head[8] = {};
        const std::size_t got = std::fread(head, 1, sizeof(head), f);
        std::fclose(f);
        champsim =
            got != sizeof(head) || std::memcmp(head, "LTCTRACE", 8);
    }

    if (champsim) {
        std::uint64_t written = 0;
        const TraceErrc errc = importChampSimFile(
            in, out, opt.limit, &written, opt.chunk);
        if (errc != TraceErrc::Ok)
            die(in, errc);
        std::printf("imported %llu references from ChampSim trace\n",
                    static_cast<unsigned long long>(written));
    } else {
        const TraceErrc errc =
            convertTraceFile(in, out, opt.limit, opt.chunk);
        if (errc != TraceErrc::Ok)
            die(in, errc);
    }
    return printInfo(out);
}

int
cmdHead(const Options &opt)
{
    if (opt.positional.empty() || opt.positional.size() > 2)
        usage();
    const std::uint64_t count = opt.positional.size() == 2
        ? parseU64(opt.positional[1], "count")
        : 10;
    StreamingTraceReader reader(opt.positional[0]);
    if (!reader.ok())
        die(opt.positional[0], reader.error());
    std::vector<MemRef> batch(4096);
    for (std::uint64_t i = 0; i < count;) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(count - i, batch.size()));
        const std::size_t got = reader.fill({batch.data(), want});
        for (std::size_t k = 0; k < got; k++, i++)
            std::printf("%8llu  %s\n",
                        static_cast<unsigned long long>(i),
                        to_string(batch[k]).c_str());
        if (got < want)
            break;
    }
    if (!reader.ok())
        die(opt.positional[0], reader.error());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    const Options opt = parseOptions(argc, argv, 2);

    if (cmd == "record")
        return cmdRecord(opt);
    if (cmd == "convert")
        return cmdConvert(opt);
    if (cmd == "info") {
        if (opt.positional.size() != 1)
            usage();
        return printInfo(opt.positional[0]);
    }
    if (cmd == "head")
        return cmdHead(opt);
    usage();
}
