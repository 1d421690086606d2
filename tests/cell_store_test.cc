/**
 * @file
 * The experiment fabric under test (sim/cell_store.hh): hash
 * stability (equal inputs hash equal across field orderings and
 * process runs, every identity perturbation changes the hash, and a
 * golden table pins absolute values), the on-disk cell store's
 * round-trip exactness and corruption robustness (truncated,
 * bit-flipped, mislabelled, stale-epoch and garbage records are
 * misses, never crashes, never served), crash/kill resume, the
 * claim-file mutual exclusion behind the multi-process backend, and
 * the counter audits.
 *
 *  - `LTC_GOLDEN_PRINT=1 ./ltc_tests --gtest_filter='*Golden*'`
 *    prints the pinned hash table in copy-pasteable form after an
 *    intended cell-identity change (e.g. a code-epoch bump).
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/cell_store.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace ltc
{

/**
 * Friend hook of CellStore: the audit death tests corrupt exactly
 * one counter relation at a time through it.
 */
struct CellStoreTestPeer
{
    /** Break hits + misses == lookups. */
    static void
    desyncLookups(CellStore &s)
    {
        s.stats_.hits++;
    }

    /** Claim more simulations than there were misses. */
    static void
    overcountSims(CellStore &s)
    {
        s.stats_.sims = s.stats_.misses + 1;
    }
};

} // namespace ltc

namespace
{

using namespace ltc;
namespace fs = std::filesystem;

bool
printMode()
{
    return std::getenv("LTC_GOLDEN_PRINT") != nullptr;
}

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
freshDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "cell_store_" +
        tag + "_" + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Pin LTC_REFS for the duration of a hash test. */
class ScopedRefs
{
  public:
    explicit ScopedRefs(const char *value)
    {
        const char *old = std::getenv("LTC_REFS");
        had_ = old != nullptr;
        old_ = had_ ? old : "";
        if (value)
            ::setenv("LTC_REFS", value, 1);
        else
            ::unsetenv("LTC_REFS");
    }

    ~ScopedRefs()
    {
        if (had_)
            ::setenv("LTC_REFS", old_.c_str(), 1);
        else
            ::unsetenv("LTC_REFS");
    }

  private:
    bool had_ = false;
    std::string old_;
};

SweepSpec
spec(const std::string &bench, std::uint64_t segment = 0)
{
    SweepSpec s;
    s.bench = bench;
    s.segment = segment;
    return s;
}

RunCell
cell(const std::string &workload, const std::string &config,
     std::uint64_t seed, std::size_t index = 0)
{
    RunCell c;
    c.index = index;
    c.workload = workload;
    c.config = config;
    c.seed = seed;
    return c;
}

/** A cheap deterministic cell function with awkward doubles. */
void
evalCell(const RunCell &c, RunResult &r)
{
    const double x = static_cast<double>(c.seed % 1009);
    r.set("third", x / 3.0);
    r.set("tenth", x + 0.1);
    r.set("neg", -x * 1e-17);
    r.set("zero", 0.0);
    r.set("big", x * 1.2345678901234567e18);
}

std::vector<RunCell>
makeCells(std::size_t n, std::uint64_t base_seed = 7)
{
    std::vector<RunCell> cells;
    for (std::size_t i = 0; i < n; i++)
        cells.push_back(cell("wl" + std::to_string(i % 5),
                             "cfg" + std::to_string(i % 3), 0, i));
    ExperimentRunner::assignSeeds(cells, base_seed);
    return cells;
}

// ------------------------------------------------------------ keys

TEST(CellKey, OrderIndependent)
{
    CellKey a;
    a.add("workload", std::string("mcf"));
    a.add("seed", std::uint64_t{42});
    a.add("config", std::string("lt-cords"));

    CellKey b;
    b.add("seed", std::uint64_t{42});
    b.add("config", std::string("lt-cords"));
    b.add("workload", std::string("mcf"));

    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(CellKey, CanonicalFormIsSortedLines)
{
    CellKey k;
    k.add("b", std::string("two"));
    k.add("a", std::uint64_t{1});
    EXPECT_EQ(k.canonical(), "a=1\nb=two\n");
}

TEST(CellKey, EscapingKeepsEncodingInjective)
{
    // A value containing separators must not canonicalize like a
    // different field split ("a" = "x\nb=y" vs "a" = "x" + "b" = "y").
    CellKey tricky;
    tricky.add("a", std::string("x\nb=y"));
    CellKey split;
    split.add("a", std::string("x"));
    split.add("b", std::string("y"));
    EXPECT_NE(tricky.canonical(), split.canonical());
    EXPECT_NE(tricky.hash(), split.hash());

    CellKey backslash;
    backslash.add("a", std::string("x\\nb=y"));
    EXPECT_NE(tricky.canonical(), backslash.canonical());
}

// ---------------------------------------------------- cell hashing

TEST(CellHash, StableAcrossCalls)
{
    ScopedRefs refs(nullptr);
    const RunCell c = cell("mcf", "lt-cords", 42);
    EXPECT_EQ(cellHash(spec("fig8"), c, "epoch-1"),
              cellHash(spec("fig8"), c, "epoch-1"));
}

TEST(CellHash, EveryIdentityFieldPerturbsTheHash)
{
    ScopedRefs refs(nullptr);
    const RunCell base = cell("mcf", "lt-cords", 42);
    const std::uint64_t h = cellHash(spec("fig8"), base, "epoch-1");

    EXPECT_NE(h, cellHash(spec("fig8"), cell("swim", "lt-cords", 42),
                          "epoch-1"));
    EXPECT_NE(h, cellHash(spec("fig8"), cell("mcf", "dbcp", 42),
                          "epoch-1"));
    EXPECT_NE(h, cellHash(spec("fig8"), cell("mcf", "lt-cords", 43),
                          "epoch-1"));
    EXPECT_NE(h, cellHash(spec("fig9"), base, "epoch-1"));
    EXPECT_NE(h, cellHash(spec("fig8", 1), base, "epoch-1"));
    EXPECT_NE(h, cellHash(spec("fig8"), base, "epoch-2"));

    // The cell index is deliberately NOT identity: it already
    // determines the seed, and resume must tolerate reordered cells.
    RunCell moved = base;
    moved.index = 99;
    EXPECT_EQ(h, cellHash(spec("fig8"), moved, "epoch-1"));
}

TEST(CellHash, RefsBudgetIsIdentity)
{
    ScopedRefs refs("150k");
    const RunCell c = cell("mcf", "lt-cords", 42);
    const std::uint64_t h150 = cellHash(spec("fig8"), c, "epoch-1");
    {
        ScopedRefs other("200k");
        EXPECT_NE(h150, cellHash(spec("fig8"), c, "epoch-1"));
    }
    EXPECT_EQ(h150, cellHash(spec("fig8"), c, "epoch-1"));
}

// Golden hashes: absolute values pinned so an accidental change to
// the canonicalization, the FNV constants or the key fields cannot
// slip through as "still self-consistent". Regenerate with
// LTC_GOLDEN_PRINT=1 after an intended identity change.
struct HashGolden
{
    const char *bench;
    std::uint64_t segment;
    const char *workload;
    const char *config;
    std::uint64_t seed;
    const char *epoch;
    const char *hex;
};

const HashGolden kCellHashGolden[] = {
    {"fig8_coverage", 0, "mcf", "lt-cords", 42, "epoch-1",
     "46022733863a4867"},
    {"fig8_coverage", 1, "mcf", "lt-cords", 42, "epoch-1",
     "c5ab24009ab87510"},
    {"table3_speedup", 0, "swim", "dbcp-2mb", 7, "epoch-1",
     "6cf8b31a734fdf04"},
    {"table3_speedup", 0, "swim", "dbcp-2mb", 7, "ltc-fabric-1",
     "3f95353d006da8b4"},
    {"ablation_design", 0, "treeadd", "", 1, "ltc-fabric-1",
     "97f8b01551e50e15"},
};

TEST(CellHash, GoldenValues)
{
    ScopedRefs refs(nullptr);
    for (const HashGolden &g : kCellHashGolden) {
        const std::uint64_t h = cellHash(
            spec(g.bench, g.segment), cell(g.workload, g.config,
                                           g.seed), g.epoch);
        if (printMode()) {
            std::printf("    {\"%s\", %llu, \"%s\", \"%s\", %llu, "
                        "\"%s\",\n     \"%s\"},\n",
                        g.bench,
                        static_cast<unsigned long long>(g.segment),
                        g.workload, g.config,
                        static_cast<unsigned long long>(g.seed),
                        g.epoch, cellHashHex(h).c_str());
            continue;
        }
        EXPECT_EQ(cellHashHex(h), g.hex)
            << g.bench << "/" << g.workload << "/" << g.config;
    }
}

TEST(CellHash, HexFormIsPadded)
{
    EXPECT_EQ(cellHashHex(0xabcULL), "0000000000000abc");
    EXPECT_EQ(cellHashHex(0), "0000000000000000");
}

// ---------------------------------------------------- record store

TEST(CellStoreRecords, RoundTripIsExact)
{
    const std::string dir = freshDir("roundtrip");
    CellStore store(dir, "epoch-1");

    RunResult r;
    r.cell = cell("mcf", "lt-cords", 42, 3);
    evalCell(r.cell, r);
    store.store(1234, r);

    RunResult back;
    ASSERT_TRUE(store.lookup(1234, back));
    EXPECT_EQ(resultsToJson({back}), resultsToJson({r}));

    const CellStoreStats s = store.stats();
    EXPECT_EQ(s.lookups, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.stores, 1u);
}

TEST(CellStoreRecords, MissingRecordIsACleanMiss)
{
    const std::string dir = freshDir("missing");
    CellStore store(dir, "epoch-1");
    RunResult out;
    EXPECT_FALSE(store.lookup(555, out));
    const CellStoreStats s = store.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.corrupt, 0u);
    EXPECT_EQ(s.stale, 0u);
}

TEST(CellStoreRecords, TruncationAtEveryLengthIsAMiss)
{
    const std::string dir = freshDir("truncate");
    CellStore store(dir, "epoch-1");
    RunResult r;
    r.cell = cell("mcf", "lt-cords", 42);
    evalCell(r.cell, r);
    store.store(77, r);

    std::ifstream in(store.recordPath(77), std::ios::binary);
    std::string full((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(full.size(), 16u);

    // Losing only the final newline is tolerated by design (the
    // tail may be "}" or "}\n"); every shorter prefix must read as
    // Corrupt - the trailing checksum cannot survive real tail loss.
    {
        std::ofstream out(store.recordPath(77),
                          std::ios::binary | std::ios::trunc);
        out << full.substr(0, full.size() - 1);
    }
    RunResult still;
    EXPECT_TRUE(store.lookup(77, still));

    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{1}, full.size() / 4,
          full.size() / 2, full.size() - 3, full.size() - 2}) {
        std::ofstream out(store.recordPath(77),
                          std::ios::binary | std::ios::trunc);
        out << full.substr(0, keep);
        out.close();
        RunResult back;
        EXPECT_FALSE(store.lookup(77, back)) << "kept " << keep;
    }
    const CellStoreStats s = store.stats();
    EXPECT_EQ(s.corrupt, 6u);
    EXPECT_EQ(s.misses, 6u);
}

TEST(CellStoreRecords, BitFlipIsAMiss)
{
    const std::string dir = freshDir("bitflip");
    CellStore store(dir, "epoch-1");
    RunResult r;
    r.cell = cell("mcf", "lt-cords", 42);
    evalCell(r.cell, r);
    store.store(88, r);

    std::ifstream in(store.recordPath(88), std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    // Flip one payload bit in the middle of the metrics.
    text[text.size() / 2] ^= 0x08;
    std::ofstream out(store.recordPath(88),
                      std::ios::binary | std::ios::trunc);
    out << text;
    out.close();

    RunResult back;
    EXPECT_FALSE(store.lookup(88, back));
    EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(CellStoreRecords, GarbageAndEmptyFilesAreMisses)
{
    const std::string dir = freshDir("garbage");
    CellStore store(dir, "epoch-1");
    {
        std::ofstream out(store.recordPath(1));
        out << "this is not a cell record at all {]";
    }
    { std::ofstream out(store.recordPath(2)); }
    {
        // Well-formed JSON, no checksum: still a miss.
        std::ofstream out(store.recordPath(3));
        out << "{\"records\": []}\n";
    }
    RunResult back;
    EXPECT_FALSE(store.lookup(1, back));
    EXPECT_FALSE(store.lookup(2, back));
    EXPECT_FALSE(store.lookup(3, back));
    EXPECT_EQ(store.stats().corrupt, 3u);
}

TEST(CellStoreRecords, StaleEpochIsAMissNotCorruption)
{
    const std::string dir = freshDir("stale");
    RunResult r;
    r.cell = cell("mcf", "lt-cords", 42);
    evalCell(r.cell, r);
    {
        CellStore old(dir, "epoch-old");
        old.store(99, r);
    }
    CellStore now(dir, "epoch-new");
    RunResult back;
    EXPECT_FALSE(now.lookup(99, back));
    const CellStoreStats s = now.stats();
    EXPECT_EQ(s.stale, 1u);
    EXPECT_EQ(s.corrupt, 0u);

    std::string epoch;
    EXPECT_EQ(probeCellRecord(now.recordPath(99), "epoch-new", 99,
                              nullptr, &epoch),
              CellRecordStatus::StaleEpoch);
    EXPECT_EQ(epoch, "epoch-old");
}

TEST(CellStoreRecords, RecordRenamedToWrongHashIsCorrupt)
{
    const std::string dir = freshDir("renamed");
    CellStore store(dir, "epoch-1");
    RunResult r;
    r.cell = cell("mcf", "lt-cords", 42);
    evalCell(r.cell, r);
    store.store(100, r);
    fs::copy_file(store.recordPath(100), store.recordPath(200));

    RunResult back;
    EXPECT_TRUE(store.lookup(100, back));
    EXPECT_FALSE(store.lookup(200, back));
    EXPECT_EQ(store.stats().corrupt, 1u);
}

TEST(CellStoreRecords, ProbeReportsOkWithPayload)
{
    const std::string dir = freshDir("probe");
    CellStore store(dir, "epoch-1");
    RunResult r;
    r.cell = cell("mcf", "lt-cords", 42, 5);
    evalCell(r.cell, r);
    store.store(42, r);

    RunResult out;
    std::string epoch;
    EXPECT_EQ(probeCellRecord(store.recordPath(42), "epoch-1", 42,
                              &out, &epoch),
              CellRecordStatus::Ok);
    EXPECT_EQ(epoch, "epoch-1");
    EXPECT_EQ(resultsToJson({out}), resultsToJson({r}));
    EXPECT_EQ(probeCellRecord(dir + "/nonexistent.json", "epoch-1",
                              42),
              CellRecordStatus::Corrupt);
}

// --------------------------------------------------------- claims

TEST(CellStoreClaims, ClaimIsExclusiveUntilCleared)
{
    const std::string dir = freshDir("claims");
    CellStore store(dir, "epoch-1");
    EXPECT_EQ(store.claimOwner(7), 0);
    EXPECT_TRUE(store.claim(7));
    EXPECT_FALSE(store.claim(7));
    EXPECT_EQ(store.claimOwner(7), static_cast<long>(::getpid()));
    EXPECT_EQ(store.stats().claims, 1u);

    store.clearStale();
    EXPECT_EQ(store.claimOwner(7), 0);
    EXPECT_TRUE(store.claim(7));
}

TEST(CellStoreClaims, ClearStaleKeepsRecords)
{
    const std::string dir = freshDir("clearstale");
    CellStore store(dir, "epoch-1");
    RunResult r;
    r.cell = cell("mcf", "lt-cords", 42);
    evalCell(r.cell, r);
    store.store(1, r);
    EXPECT_TRUE(store.claim(2));
    {
        std::ofstream out(dir + "/deadbeef.json.tmp.12345");
        out << "partial";
    }

    store.clearStale();
    RunResult back;
    EXPECT_TRUE(store.lookup(1, back));
    EXPECT_EQ(store.claimOwner(2), 0);
    EXPECT_FALSE(fs::exists(dir + "/deadbeef.json.tmp.12345"));
}

// ---------------------------------------------------- cached sweeps

TEST(CachedSweep, WarmCachePerformsZeroSimulations)
{
    const std::string dir = freshDir("warm");
    const auto cells = makeCells(12);
    const ExperimentRunner runner(3);

    const auto reference = runner.run(cells, evalCell);

    std::string coldJson;
    {
        CellStore store(dir, "epoch-1");
        const auto cold = runCellsCached(runner, store,
                                         spec("bench"), cells,
                                         evalCell);
        coldJson = resultsToJson(cold);
        const CellStoreStats s = store.stats();
        EXPECT_EQ(s.sims, cells.size());
        EXPECT_EQ(s.stores, cells.size());
        EXPECT_EQ(s.hits, 0u);
    }
    EXPECT_EQ(coldJson, resultsToJson(reference));

    // Fresh store over the same directory: every cell is a hit and
    // the serialized output is byte-identical.
    CellStore store(dir, "epoch-1");
    const auto warm = runCellsCached(runner, store, spec("bench"),
                                     cells, evalCell);
    const CellStoreStats s = store.stats();
    EXPECT_EQ(s.sims, 0u);
    EXPECT_EQ(s.hits, cells.size());
    EXPECT_EQ(resultsToJson(warm), coldJson);
}

TEST(CachedSweep, CorruptedRecordIsRecomputedNotServed)
{
    const std::string dir = freshDir("recompute");
    const auto cells = makeCells(6);
    const ExperimentRunner runner(2);

    std::string coldJson;
    {
        CellStore store(dir, "epoch-1");
        coldJson = resultsToJson(runCellsCached(
            runner, store, spec("bench"), cells, evalCell));
    }

    // Corrupt exactly one record in place.
    CellStore store(dir, "epoch-1");
    const std::uint64_t h =
        cellHash(spec("bench"), cells[2], "epoch-1");
    {
        std::ofstream out(store.recordPath(h),
                          std::ios::binary | std::ios::trunc);
        out << "{\"schema\": 1, \"epoch\": \"epoch-1\"";
    }
    const auto again = runCellsCached(runner, store, spec("bench"),
                                      cells, evalCell);
    const CellStoreStats s = store.stats();
    EXPECT_EQ(s.sims, 1u);
    EXPECT_EQ(s.corrupt, 1u);
    EXPECT_EQ(s.hits, cells.size() - 1);
    EXPECT_EQ(resultsToJson(again), coldJson);

    // The recompute healed the store: all hits next time.
    CellStore healed(dir, "epoch-1");
    runCellsCached(runner, healed, spec("bench"), cells, evalCell);
    EXPECT_EQ(healed.stats().hits, cells.size());
}

TEST(CachedSweep, SegmentsDoNotCollide)
{
    const std::string dir = freshDir("segments");
    const auto cells = makeCells(4);
    const ExperimentRunner runner(1);

    auto evalTimesTwo = [](const RunCell &c, RunResult &r) {
        evalCell(c, r);
        r.set("third", r.get("third") * 2);
    };

    CellStore store(dir, "epoch-1");
    const auto seg0 = runCellsCached(runner, store, spec("bench", 0),
                                     cells, evalCell);
    const auto seg1 = runCellsCached(runner, store, spec("bench", 1),
                                     cells, evalTimesTwo);
    // Same (workload, config, seed) labels, different segment: the
    // second sweep must not be served the first sweep's records.
    EXPECT_EQ(store.stats().sims, 2 * cells.size());
    EXPECT_NE(resultsToJson(seg0), resultsToJson(seg1));
}

// ------------------------------------------------- claim-loop sweep

TEST(ClaimSweep, SingleParticipantMatchesRunner)
{
    const std::string dir = freshDir("claim1");
    const auto cells = makeCells(9);
    const ExperimentRunner serial(1);
    const auto reference = serial.run(cells, evalCell);

    CellStore store(dir, "epoch-1");
    const auto claimed = runCellsClaiming(store, spec("bench"),
                                          cells, evalCell, 5);
    EXPECT_EQ(resultsToJson(claimed), resultsToJson(reference));
    EXPECT_EQ(store.stats().sims, cells.size());
}

TEST(ClaimSweep, ThreeProcessesProduceIdenticalResults)
{
    const std::string dir = freshDir("claim3");
    const auto cells = makeCells(15);
    const ExperimentRunner serial(1);
    const std::string reference =
        resultsToJson(serial.run(cells, evalCell));

    // Two forked children plus this process participate in one
    // claim loop over a shared store, like the spawned workers of
    // runCellsMultiProcess but without the execve (the test binary
    // must not re-run gtest's main).
    std::vector<pid_t> kids;
    for (int k = 1; k <= 2; k++) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            CellStore store(dir, "epoch-1");
            const auto mine = runCellsClaiming(
                store, spec("bench"), cells, evalCell,
                static_cast<std::size_t>(k) * 5);
            ::_exit(resultsToJson(mine) == reference ? 0 : 1);
        }
        kids.push_back(pid);
    }

    CellStore store(dir, "epoch-1");
    const auto mine =
        runCellsClaiming(store, spec("bench"), cells, evalCell, 0);
    EXPECT_EQ(resultsToJson(mine), reference);

    for (const pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // Every cell was computed exactly once across the three
    // participants (no lost cells, no duplicated computes in the
    // uncontended case is NOT guaranteed - but the store must hold
    // one valid record per cell).
    CellStore verify(dir, "epoch-1");
    for (const auto &c : cells) {
        RunResult out;
        EXPECT_TRUE(
            verify.lookup(cellHash(spec("bench"), c, "epoch-1"),
                          out));
    }
}

TEST(ClaimSweep, DeadClaimantIsRecomputed)
{
    const std::string dir = freshDir("deadclaim");
    const auto cells = makeCells(3);
    CellStore store(dir, "epoch-1");

    // Forge a claim owned by a dead process: fork a child that
    // exits immediately after claiming.
    const std::uint64_t h =
        cellHash(spec("bench"), cells[1], "epoch-1");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        CellStore mine(dir, "epoch-1");
        mine.claim(h);
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_NE(store.claimOwner(h), 0);

    // The claim loop must not wait forever on the dead owner.
    const ExperimentRunner serial(1);
    const auto results =
        runCellsClaiming(store, spec("bench"), cells, evalCell, 0);
    EXPECT_EQ(resultsToJson(results),
              resultsToJson(serial.run(cells, evalCell)));
}

// ----------------------------------------------------- kill/resume

TEST(KillResume, KilledSweepResumesWithoutRecomputingFinishedCells)
{
    const std::string dir = freshDir("killresume");
    const auto cells = makeCells(20);
    const ExperimentRunner serial(1);
    const std::string reference =
        resultsToJson(serial.run(cells, evalCell));

    // The victim: a serial cached sweep that dawdles per cell so the
    // parent can SIGKILL it mid-flight.
    auto slowEval = [](const RunCell &c, RunResult &r) {
        ::usleep(30 * 1000);
        evalCell(c, r);
    };
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        CellStore store(dir, "epoch-1");
        runCellsCached(serial, store, spec("bench"), cells,
                       slowEval);
        ::_exit(0);
    }

    // Hard-kill once a few records exist (a completed record is an
    // atomic rename, so "a few .json files" means finished cells).
    std::size_t published = 0;
    for (int tries = 0; tries < 4000; tries++) {
        published = 0;
        for (const auto &e : fs::directory_iterator(dir))
            published += e.path().extension() == ".json";
        if (published >= 3)
            break;
        ::usleep(5 * 1000);
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_GE(published, 3u);
    ASSERT_LT(published, cells.size()); // it really died mid-sweep

    // Resume: finished cells are hits, the remainder simulates, and
    // the final output is byte-identical to the uninterrupted run.
    CellStore store(dir, "epoch-1");
    store.clearStale();
    const auto resumed = runCellsCached(serial, store, spec("bench"),
                                        cells, evalCell);
    const CellStoreStats s = store.stats();
    EXPECT_GE(s.hits, published);
    EXPECT_EQ(s.hits + s.sims, cells.size());
    EXPECT_LT(s.sims, cells.size());
    EXPECT_EQ(resultsToJson(resumed), reference);
}

// ----------------------------------------------------------- audits

TEST(CellStoreAudit, CleanStorePassesAfterMixedTraffic)
{
    const std::string dir = freshDir("audit");
    const auto cells = makeCells(8);
    const ExperimentRunner runner(2);
    CellStore store(dir, "epoch-1");
    runCellsCached(runner, store, spec("bench"), cells, evalCell);
    runCellsCached(runner, store, spec("bench"), cells, evalCell);
    RunResult out;
    store.lookup(12345, out); // one plain miss on top
    store.auditInvariants();  // must not panic
}

TEST(CellStoreAuditDeath, DesyncedCountersArePanics)
{
    const std::string dir = freshDir("auditdeath");
    CellStore store(dir, "epoch-1");
    RunResult out;
    store.lookup(1, out);
    CellStoreTestPeer::desyncLookups(store);
    EXPECT_DEATH(store.auditInvariants(), "invariant");
}

TEST(CellStoreAuditDeath, SimWithoutMissIsAPanic)
{
    const std::string dir = freshDir("auditdeath2");
    CellStore store(dir, "epoch-1");
    CellStoreTestPeer::overcountSims(store);
    EXPECT_DEATH(store.auditInvariants(), "invariant");
}

// ----------------------------------------- worker env + trace dirs

TEST(WorkerEnvironment, CarriesStoreWorkerAndTraceDir)
{
    setTraceDir("");
    ::unsetenv("LTC_TRACE_DIR");

    auto env = workerEnvironment("/tmp/cache", 2);
    auto find = [&](const std::string &name) -> std::string {
        for (const auto &[k, v] : env)
            if (k == name)
                return v;
        return "<absent>";
    };
    EXPECT_EQ(find("LTC_SWEEP_WORKER"), "2");
    EXPECT_EQ(find("LTC_CELL_CACHE"), "/tmp/cache");
    EXPECT_EQ(find("LTC_TRACE_DIR"), "<absent>");

    // With a --trace-dir registration active, the worker must be
    // handed the directory explicitly: setTraceDir() state does not
    // survive re-execution (the ResultSink trace-dir fix).
    const std::string traces = freshDir("workerenv");
    setTraceDir(traces);
    env = workerEnvironment("/tmp/cache", 2);
    std::string forwarded = "<absent>";
    for (const auto &[k, v] : env)
        if (k == "LTC_TRACE_DIR")
            forwarded = v;
    EXPECT_EQ(forwarded, traces);
    setTraceDir("");
}

TEST(WorkloadDigest, SyntheticWorkloadsDigestToZero)
{
    EXPECT_EQ(workloadDigest("mcf"), 0u);
    EXPECT_EQ(workloadDigest("swim"), 0u);
}

TEST(WorkloadDigest, DistinguishesTraceContainers)
{
    // Unique directory per run: the registry caches per-dir scans.
    const std::string dir = freshDir("digest");
    {
        auto src = makeWorkload("mcf", 1);
        ASSERT_EQ(captureToFile(*src, dir + "/alpha.ltct", 5000),
                  TraceErrc::Ok);
    }
    {
        auto src = makeWorkload("treeadd", 1);
        ASSERT_EQ(captureToFile(*src, dir + "/beta.ltct", 5000),
                  TraceErrc::Ok);
    }
    setTraceDir(dir);
    const std::uint64_t a = workloadDigest("trace:alpha");
    const std::uint64_t b = workloadDigest("trace:beta");
    setTraceDir("");
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
}

// -------------------------------------------- ResultSink end to end

TEST(ResultSinkFabric, CellCacheFlagDrivesTheSweep)
{
    const std::string dir = freshDir("sinkrun");
    const auto cells = makeCells(6);
    const ExperimentRunner runner(2);

    const std::string flag = "--cell-cache=" + dir;
    std::vector<char *> argv;
    char arg0[] = "bench";
    std::string flagCopy = flag;
    argv.push_back(arg0);
    argv.push_back(flagCopy.data());

    std::string coldJson;
    {
        ResultSink sink("fabric_test",
                        static_cast<int>(argv.size()), argv.data());
        const auto cold = sink.run(runner, cells, evalCell);
        coldJson = resultsToJson(cold);
        EXPECT_EQ(sink.cellStats().sims, cells.size());
    }
    {
        ResultSink sink("fabric_test",
                        static_cast<int>(argv.size()), argv.data());
        const auto warm = sink.run(runner, cells, evalCell);
        EXPECT_EQ(sink.cellStats().sims, 0u);
        EXPECT_EQ(sink.cellStats().hits, cells.size());
        EXPECT_EQ(resultsToJson(warm), coldJson);
    }
}

TEST(ResultSinkFabric, UncachedSinkReportsZeroStats)
{
    ResultSink sink("fabric_stats_test");
    const CellStoreStats s = sink.cellStats();
    EXPECT_EQ(s.lookups, 0u);
    EXPECT_EQ(s.sims, 0u);
}

} // namespace
