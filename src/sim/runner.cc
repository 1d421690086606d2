#include "sim/runner.hh"

#include <atomic>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>

#include "sim/cell_store.hh"
#include "trace/workloads.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace ltc
{

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("LTC_JOBS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        // strtoul accepts a leading '-' (wrapping around), so check
        // the first character ourselves.
        if (env[0] < '0' || env[0] > '9' || end == env ||
            *end != '\0' || v == 0 ||
            v > std::numeric_limits<unsigned>::max())
            ltc_fatal("LTC_JOBS must be a positive integer, got '",
                      env, "'");
        return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

// ------------------------------------------------------- RunResult

void
RunResult::set(const std::string &key, double value)
{
    for (auto &[k, v] : metrics_) {
        if (k == key) {
            v = value;
            return;
        }
    }
    metrics_.emplace_back(key, value);
}

double
RunResult::get(const std::string &key) const
{
    for (const auto &[k, v] : metrics_)
        if (k == key)
            return v;
    return 0.0;
}

bool
RunResult::has(const std::string &key) const
{
    for (const auto &[k, v] : metrics_)
        if (k == key)
            return true;
    return false;
}

// ------------------------------------------------ ExperimentRunner

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : jobs_(jobs ? jobs : defaultJobs())
{
}

void
ExperimentRunner::forEachIndex(
    std::size_t count,
    const std::function<void(std::size_t)> &fn) const
{
    if (count == 0)
        return;
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, count));
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; i++)
            fn(i);
        return;
    }

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex errorLock;

    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= count || failed.load(std::memory_order_relaxed))
                return;
            try {
                fn(i);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> hold(errorLock);
                    if (!error)
                        error = std::current_exception();
                }
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; t++)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

std::vector<RunResult>
ExperimentRunner::run(
    const std::vector<RunCell> &cells,
    const std::function<void(const RunCell &, RunResult &)> &fn)
    const
{
    std::vector<RunResult> results(cells.size());
    forEachIndex(cells.size(), [&](std::size_t i) {
        results[i].cell = cells[i];
        fn(cells[i], results[i]);
    });
    return results;
}

std::vector<RunCell>
ExperimentRunner::cross(const std::vector<std::string> &workloads,
                        const std::vector<std::string> &configs,
                        std::uint64_t base_seed)
{
    std::vector<RunCell> cells;
    cells.reserve(workloads.size() * configs.size());
    for (const auto &w : workloads) {
        for (const auto &c : configs) {
            RunCell cell;
            cell.workload = w;
            cell.config = c;
            cells.push_back(std::move(cell));
        }
    }
    assignSeeds(cells, base_seed);
    return cells;
}

std::vector<RunCell>
ExperimentRunner::cells(const std::vector<std::string> &workloads,
                        std::uint64_t base_seed)
{
    return cross(workloads, {""}, base_seed);
}

void
ExperimentRunner::assignSeeds(std::vector<RunCell> &cells,
                              std::uint64_t base_seed)
{
    for (std::size_t i = 0; i < cells.size(); i++) {
        cells[i].index = i;
        cells[i].seed = hashCombine(base_seed, i);
    }
}

// ---------------------------------------------------- serialization

namespace
{

/** Shortest representation that parses back to the same double. */
std::string
formatDouble(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

void
appendRecordJson(std::string &out, const RunResult &r)
{
    out += "{\"cell\": ";
    out += std::to_string(r.cell.index);
    out += ", \"workload\": \"";
    out += jsonEscape(r.cell.workload);
    out += "\", \"config\": \"";
    out += jsonEscape(r.cell.config);
    out += "\", \"seed\": ";
    out += std::to_string(r.cell.seed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[key, value] : r.metrics()) {
        if (!first)
            out += ", ";
        first = false;
        out += '"';
        out += jsonEscape(key);
        out += "\": ";
        out += formatDouble(value);
    }
    out += "}}";
}

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

/**
 * Recursive-descent parser for the JSON subset the sink emits
 * (objects, arrays, strings, numbers, true/false/null). Enough to
 * round-trip our own documents; not a general-purpose validator.
 */
class JsonCursor
{
  public:
    explicit JsonCursor(const std::string &text) : text_(text) {}

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\r' || text_[pos_] == '\t'))
            pos_++;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            ltc_fatal("JSON parse error: unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char ch)
    {
        if (peek() != ch)
            ltc_fatal("JSON parse error: expected '", ch, "' at byte ",
                      pos_, ", got '", text_[pos_], "'");
        pos_++;
    }

    bool
    consume(char ch)
    {
        if (peek() == ch) {
            pos_++;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                ltc_fatal("JSON parse error: unterminated string");
            const char ch = text_[pos_++];
            if (ch == '"')
                return out;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (pos_ >= text_.size())
                ltc_fatal("JSON parse error: dangling escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    ltc_fatal("JSON parse error: short \\u escape");
                unsigned code = 0;
                const auto res = std::from_chars(
                    text_.data() + pos_, text_.data() + pos_ + 4,
                    code, 16);
                if (res.ptr != text_.data() + pos_ + 4)
                    ltc_fatal("JSON parse error: bad \\u escape");
                pos_ += 4;
                // The sink only emits \u00xx control codes; decode
                // the Latin-1 subset and reject the rest.
                if (code > 0xff)
                    ltc_fatal("JSON parse error: unsupported \\u",
                              "escape > 0xff");
                out += static_cast<char>(code);
                break;
              }
              default:
                ltc_fatal("JSON parse error: bad escape '\\", esc,
                          "'");
            }
        }
    }

    double
    parseNumber()
    {
        skipSpace();
        double v = 0.0;
        const auto res = std::from_chars(
            text_.data() + pos_, text_.data() + text_.size(), v);
        if (res.ec != std::errc{})
            ltc_fatal("JSON parse error: bad number at byte ", pos_);
        pos_ = static_cast<std::size_t>(res.ptr - text_.data());
        return v;
    }

    std::uint64_t
    parseUint()
    {
        skipSpace();
        std::uint64_t v = 0;
        const auto res = std::from_chars(
            text_.data() + pos_, text_.data() + text_.size(), v);
        if (res.ec != std::errc{})
            ltc_fatal("JSON parse error: bad integer at byte ", pos_);
        pos_ = static_cast<std::size_t>(res.ptr - text_.data());
        return v;
    }

    /** Skip one complete value of any supported type. */
    void
    skipValue()
    {
        const char ch = peek();
        if (ch == '"') {
            parseString();
        } else if (ch == '{') {
            pos_++;
            if (consume('}'))
                return;
            do {
                parseString();
                expect(':');
                skipValue();
            } while (consume(','));
            expect('}');
        } else if (ch == '[') {
            pos_++;
            if (consume(']'))
                return;
            do {
                skipValue();
            } while (consume(','));
            expect(']');
        } else if (ch == 't' || ch == 'f' || ch == 'n') {
            while (pos_ < text_.size() &&
                   std::isalpha(static_cast<unsigned char>(
                       text_[pos_])))
                pos_++;
        } else {
            parseNumber();
        }
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
};

RunResult
parseRecord(JsonCursor &cur)
{
    RunResult r;
    cur.expect('{');
    if (cur.consume('}'))
        return r;
    do {
        const std::string key = cur.parseString();
        cur.expect(':');
        if (key == "cell") {
            r.cell.index =
                static_cast<std::size_t>(cur.parseUint());
        } else if (key == "workload") {
            r.cell.workload = cur.parseString();
        } else if (key == "config") {
            r.cell.config = cur.parseString();
        } else if (key == "seed") {
            r.cell.seed = cur.parseUint();
        } else if (key == "metrics") {
            cur.expect('{');
            if (!cur.consume('}')) {
                do {
                    const std::string mkey = cur.parseString();
                    cur.expect(':');
                    r.set(mkey, cur.parseNumber());
                } while (cur.consume(','));
                cur.expect('}');
            }
        } else {
            cur.skipValue();
        }
    } while (cur.consume(','));
    cur.expect('}');
    return r;
}

std::vector<RunResult>
parseRecordArray(JsonCursor &cur)
{
    std::vector<RunResult> records;
    cur.expect('[');
    if (cur.consume(']'))
        return records;
    do {
        records.push_back(parseRecord(cur));
    } while (cur.consume(','));
    cur.expect(']');
    return records;
}

} // namespace

std::string
resultsToJson(const std::vector<RunResult> &records)
{
    std::string out = "[";
    for (std::size_t i = 0; i < records.size(); i++) {
        out += i ? ",\n " : "\n ";
        appendRecordJson(out, records[i]);
    }
    out += records.empty() ? "]" : "\n]";
    return out;
}

std::string
resultsToCsv(const std::vector<RunResult> &records)
{
    // Metric columns: union of keys in first-appearance order.
    std::vector<std::string> keys;
    for (const auto &r : records) {
        for (const auto &[key, value] : r.metrics()) {
            bool known = false;
            for (const auto &k : keys)
                if (k == key)
                    known = true;
            if (!known)
                keys.push_back(key);
        }
    }

    std::string out = "cell,workload,config,seed";
    for (const auto &k : keys) {
        out += ',';
        out += csvEscape(k);
    }
    out += '\n';
    for (const auto &r : records) {
        out += std::to_string(r.cell.index);
        out += ',';
        out += csvEscape(r.cell.workload);
        out += ',';
        out += csvEscape(r.cell.config);
        out += ',';
        out += std::to_string(r.cell.seed);
        for (const auto &k : keys) {
            out += ',';
            if (r.has(k))
                out += formatDouble(r.get(k));
        }
        out += '\n';
    }
    return out;
}

std::vector<RunResult>
resultsFromJson(const std::string &text)
{
    JsonCursor cur(text);
    if (cur.peek() == '[')
        return parseRecordArray(cur);

    // Full sink document: scan the top-level object for "records".
    std::vector<RunResult> records;
    bool found = false;
    cur.expect('{');
    if (cur.consume('}'))
        ltc_fatal("JSON document has no \"records\" array");
    do {
        const std::string key = cur.parseString();
        cur.expect(':');
        if (key == "records") {
            records = parseRecordArray(cur);
            found = true;
        } else {
            cur.skipValue();
        }
    } while (cur.consume(','));
    cur.expect('}');
    if (!found)
        ltc_fatal("JSON document has no \"records\" array");
    return records;
}

// --------------------------------------------------------- ResultSink

namespace
{

/** Parse a positive integer environment/flag value or die. */
unsigned
parsePositive(const char *text, const char *what)
{
    char *end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (text[0] < '0' || text[0] > '9' || end == text ||
        *end != '\0' || v == 0 ||
        v > std::numeric_limits<unsigned>::max())
        ltc_fatal(what, " must be a positive integer, got '", text,
                  "'");
    return static_cast<unsigned>(v);
}

} // namespace

ResultSink::ResultSink(std::string bench, int argc,
                       char *const *argv)
    : bench_(std::move(bench)), argv_(argv)
{
    if (const char *env = std::getenv("LTC_JSON"))
        jsonPath_ = env;
    if (const char *env = std::getenv("LTC_CSV"))
        csvPath_ = env;
    if (const char *env = std::getenv("LTC_CELL_CACHE"))
        cacheDir_ = env;
    if (const char *env = std::getenv("LTC_SWEEP_PROCS"))
        procs_ = parsePositive(env, "LTC_SWEEP_PROCS");
    if (const char *env = std::getenv("LTC_SWEEP_WORKER"))
        workerIndex_ = parsePositive(env, "LTC_SWEEP_WORKER");

    auto takeValue = [&](int &i, const std::string &arg,
                         const char *flag) -> const char * {
        const std::string prefix = std::string(flag) + "=";
        if (arg.rfind(prefix, 0) == 0)
            return argv[i] + prefix.size();
        if (arg == flag) {
            if (i + 1 >= argc)
                ltc_fatal(flag, " requires a path argument");
            return argv[++i];
        }
        return nullptr;
    };

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (const char *v = takeValue(i, arg, "--json")) {
            if (*v == '\0')
                ltc_fatal("--json requires a non-empty path");
            jsonPath_ = v;
        } else if (const char *v = takeValue(i, arg, "--csv")) {
            if (*v == '\0')
                ltc_fatal("--csv requires a non-empty path");
            csvPath_ = v;
        } else if (const char *v = takeValue(i, arg, "--trace-dir")) {
            if (*v == '\0')
                ltc_fatal("--trace-dir requires a non-empty path");
            // Equivalent to LTC_TRACE_DIR: the workload registry
            // (trace/workloads.hh) discovers *.ltct containers there
            // and benches sweep them like built-ins.
            setTraceDir(v);
        } else if (const char *v = takeValue(i, arg, "--cell-cache")) {
            if (*v == '\0')
                ltc_fatal("--cell-cache requires a non-empty path");
            cacheDir_ = v;
        } else if (const char *v = takeValue(i, arg, "--procs")) {
            procs_ = parsePositive(v, "--procs");
        } else {
            ltc_fatal("unknown argument '", arg, "'; usage: ", bench_,
                      " [--json <path>] [--csv <path>]",
                      " [--trace-dir <dir>] [--cell-cache <dir>]",
                      " [--procs <n>] (or LTC_JSON/LTC_CSV/",
                      "LTC_TRACE_DIR/LTC_CELL_CACHE/LTC_SWEEP_PROCS",
                      " env vars; \"-\" = stdout)");
        }
    }

    if (procs_ > 1 && cacheDir_.empty())
        ltc_fatal("--procs/LTC_SWEEP_PROCS needs a cell cache ",
                  "(--cell-cache/LTC_CELL_CACHE): workers exchange ",
                  "results through the store");

    if (workerIndex_ > 0) {
        // A sweep worker replays the bench's main() for its side
        // effects on the shared store only: silence the tables and
        // notes and drop the exports so workers never race the
        // coordinator's output files.
        if (cacheDir_.empty())
            ltc_fatal("LTC_SWEEP_WORKER=", workerIndex_,
                      " without LTC_CELL_CACHE");
        if (!std::freopen("/dev/null", "w", stdout))
            ltc_fatal("sweep worker: cannot silence stdout");
        jsonPath_.clear();
        csvPath_.clear();
    }
}

ResultSink::~ResultSink() = default;

std::vector<RunResult>
ResultSink::run(
    const ExperimentRunner &runner, const std::vector<RunCell> &cells,
    const std::function<void(const RunCell &, RunResult &)> &fn,
    bool cacheable)
{
    // Segment ordinal: part of every cell hash, so two sweeps of one
    // bench with identical (workload, config) labels cannot collide.
    // Workers replay the same main(), so their ordinals line up.
    const std::uint64_t segment = sweepCalls_++;
    if (!cacheable || cacheDir_.empty())
        return runner.run(cells, fn);

    if (!store_)
        store_ = std::make_unique<CellStore>(cacheDir_);
    SweepSpec spec;
    spec.bench = bench_;
    spec.segment = segment;

    if (workerIndex_ > 0) {
        // Decorrelate worker starting points (Fibonacci hashing);
        // runCellsClaiming reduces the offset modulo the cell count.
        const std::size_t offset =
            static_cast<std::size_t>(workerIndex_) * 2654435761ULL;
        return runCellsClaiming(*store_, spec, cells, fn, offset);
    }
    if (procs_ > 1) {
        if (!argv_)
            ltc_fatal("--procs needs ResultSink(bench, argc, argv): ",
                      "workers re-execute the bench's command line");
        return runCellsMultiProcess(*store_, spec, cells, fn,
                                    procs_ - 1, argv_);
    }
    return runCellsCached(runner, *store_, spec, cells, fn);
}

CellStoreStats
ResultSink::cellStats() const
{
    return store_ ? store_->stats() : CellStoreStats{};
}

void
ResultSink::table(const Table &t)
{
    std::fputs(t.render().c_str(), stdout);
    std::fputs("\n[csv]\n", stdout);
    std::fputs(t.csv().c_str(), stdout);
    std::fputs("\n", stdout);
    tables_.push_back(t);
}

void
ResultSink::add(std::vector<RunResult> records)
{
    for (auto &r : records)
        records_.push_back(std::move(r));
}

void
ResultSink::note(const std::string &line)
{
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    notes_.push_back(line);
}

std::string
ResultSink::json() const
{
    std::string out = "{\"bench\": \"";
    out += jsonEscape(bench_);
    out += "\", \"schema\": 1,\n\"records\": ";
    out += resultsToJson(records_);
    out += ",\n\"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); t++) {
        const Table &table = tables_[t];
        out += t ? ",\n " : "\n ";
        out += "{\"title\": \"";
        out += jsonEscape(table.title());
        out += "\", \"header\": [";
        for (std::size_t i = 0; i < table.header().size(); i++) {
            if (i)
                out += ", ";
            out += '"';
            out += jsonEscape(table.header()[i]);
            out += '"';
        }
        out += "], \"rows\": [";
        for (std::size_t r = 0; r < table.rows().size(); r++) {
            if (r)
                out += ", ";
            out += '[';
            const auto &row = table.rows()[r];
            for (std::size_t i = 0; i < row.size(); i++) {
                if (i)
                    out += ", ";
                out += '"';
                out += jsonEscape(row[i]);
                out += '"';
            }
            out += ']';
        }
        out += "]}";
    }
    out += tables_.empty() ? "]" : "\n]";
    out += ",\n\"notes\": [";
    for (std::size_t i = 0; i < notes_.size(); i++) {
        if (i)
            out += ", ";
        out += '"';
        out += jsonEscape(notes_[i]);
        out += '"';
    }
    out += "]}\n";
    return out;
}

int
ResultSink::finish()
{
    auto write = [&](const std::string &path,
                     const std::string &content, const char *kind) {
        if (path.empty())
            return;
        if (path == "-") {
            std::fputs(content.c_str(), stdout);
            return;
        }
        std::ofstream out(path, std::ios::binary);
        if (!out)
            ltc_fatal("cannot open ", kind, " output file '", path,
                      "'");
        out << content;
        if (!out)
            ltc_fatal("error writing ", kind, " output file '", path,
                      "'");
    };
    write(jsonPath_, json(), "JSON");
    write(csvPath_, resultsToCsv(records_), "CSV");

    // LTC_CELL_STATS=1: one machine-greppable stderr line with the
    // fabric counters (stderr so it never lands in "-" exports).
    // CI's warm-cache gate asserts `sims=0` from it.
    if (store_ && std::getenv("LTC_CELL_STATS")) {
        const CellStoreStats s = store_->stats();
        std::fprintf(stderr,
                     "[cell-cache] %s lookups=%llu hits=%llu "
                     "misses=%llu corrupt=%llu stale=%llu "
                     "sims=%llu stores=%llu claims=%llu\n",
                     bench_.c_str(),
                     static_cast<unsigned long long>(s.lookups),
                     static_cast<unsigned long long>(s.hits),
                     static_cast<unsigned long long>(s.misses),
                     static_cast<unsigned long long>(s.corrupt),
                     static_cast<unsigned long long>(s.stale),
                     static_cast<unsigned long long>(s.sims),
                     static_cast<unsigned long long>(s.stores),
                     static_cast<unsigned long long>(s.claims));
    }
    return 0;
}

} // namespace ltc
