/**
 * @file
 * Unit tests for the parallel experiment runner and the result
 * serialization layer (sim/runner.hh).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "sim/runner.hh"
#include "util/hash.hh"
#include "util/random.hh"

namespace ltc
{
namespace
{

/**
 * A deterministic but nontrivial cell function: a few thousand RNG
 * draws seeded only by the cell, so any scheduling nondeterminism
 * would show up in the output.
 */
void
mixCell(const RunCell &cell, RunResult &r)
{
    Rng rng = cell.rng();
    std::uint64_t acc = 0;
    for (int i = 0; i < 4096; i++)
        acc ^= rng.next();
    r.set("mix", static_cast<double>(acc >> 11));
    r.set("uniform", rng.uniform());
}

std::vector<RunCell>
sampleSweep()
{
    return ExperimentRunner::cross(
        {"mcf", "swim", "em3d", "gap", "art"},
        {"base", "lt-cords", "ghb"});
}

TEST(ExperimentRunnerTest, OneThreadVsEightThreadsBitIdentical)
{
    const auto cells = sampleSweep();
    const auto serial = ExperimentRunner(1).run(cells, mixCell);
    const auto parallel = ExperimentRunner(8).run(cells, mixCell);

    ASSERT_EQ(serial.size(), parallel.size());
    // Byte-identical serialized records, the same guarantee the
    // bench JSON export relies on.
    EXPECT_EQ(resultsToJson(serial), resultsToJson(parallel));
    EXPECT_EQ(resultsToCsv(serial), resultsToCsv(parallel));
}

TEST(ExperimentRunnerTest, EmptySweep)
{
    const auto results = ExperimentRunner(4).run({}, mixCell);
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(resultsToJson(results), "[]");
}

TEST(ExperimentRunnerTest, SingleCell)
{
    std::vector<RunCell> cells;
    cells.emplace_back();
    cells.back().workload = "mcf";
    ExperimentRunner::assignSeeds(cells, 7);

    const auto results = ExperimentRunner(8).run(cells, mixCell);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].cell.workload, "mcf");
    EXPECT_EQ(results[0].cell.index, 0u);
    EXPECT_TRUE(results[0].has("mix"));
}

TEST(ExperimentRunnerTest, CrossShapeAndSeeds)
{
    const auto cells =
        ExperimentRunner::cross({"a", "b"}, {"x", "y", "z"}, 42);
    ASSERT_EQ(cells.size(), 6u);
    // Workloads-major layout with sequential indices.
    EXPECT_EQ(cells[0].workload, "a");
    EXPECT_EQ(cells[0].config, "x");
    EXPECT_EQ(cells[4].workload, "b");
    EXPECT_EQ(cells[4].config, "y");
    for (std::size_t i = 0; i < cells.size(); i++)
        EXPECT_EQ(cells[i].index, i);
    // Seeds depend only on (base seed, index): distinct across
    // cells, reproducible across calls.
    const auto again =
        ExperimentRunner::cross({"a", "b"}, {"x", "y", "z"}, 42);
    for (std::size_t i = 0; i < cells.size(); i++) {
        EXPECT_EQ(cells[i].seed, again[i].seed);
        for (std::size_t j = i + 1; j < cells.size(); j++)
            EXPECT_NE(cells[i].seed, cells[j].seed);
    }
    // A different base seed reseeds every cell.
    const auto other =
        ExperimentRunner::cross({"a", "b"}, {"x", "y", "z"}, 43);
    EXPECT_NE(cells[0].seed, other[0].seed);
}

TEST(ExperimentRunnerTest, AllCellsExecuteExactlyOnce)
{
    std::atomic<std::uint64_t> calls{0};
    const auto cells = sampleSweep();
    ExperimentRunner(8).run(cells,
                            [&](const RunCell &, RunResult &r) {
                                calls.fetch_add(1);
                                r.set("v", 1.0);
                            });
    EXPECT_EQ(calls.load(), cells.size());
}

TEST(ExperimentRunnerTest, MapPreservesIndexOrder)
{
    ExperimentRunner runner(8);
    const auto out = runner.map<std::uint64_t>(
        100, [](std::size_t i) { return mix64(i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); i++)
        EXPECT_EQ(out[i], mix64(i));
}

TEST(ExperimentRunnerTest, CellExceptionPropagates)
{
    const auto cells = sampleSweep();
    EXPECT_THROW(
        ExperimentRunner(4).run(cells,
                                [](const RunCell &cell, RunResult &) {
                                    if (cell.index == 7)
                                        throw std::runtime_error(
                                            "cell failed");
                                }),
        std::runtime_error);
}

TEST(DefaultJobsTest, HonoursLtcJobsEnv)
{
    setenv("LTC_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    EXPECT_EQ(ExperimentRunner(0).jobs(), 3u);
    unsetenv("LTC_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(RunResultTest, SetGetOverwrite)
{
    RunResult r;
    EXPECT_FALSE(r.has("ipc"));
    EXPECT_DOUBLE_EQ(r.get("ipc"), 0.0);
    r.set("ipc", 1.5);
    r.set("coverage", 0.25);
    r.set("ipc", 2.5); // overwrite keeps position
    ASSERT_EQ(r.metrics().size(), 2u);
    EXPECT_EQ(r.metrics()[0].first, "ipc");
    EXPECT_DOUBLE_EQ(r.get("ipc"), 2.5);
    EXPECT_DOUBLE_EQ(r.get("coverage"), 0.25);
}

std::vector<RunResult>
sampleRecords()
{
    std::vector<RunCell> cells = ExperimentRunner::cross(
        {"mcf", "a,b \"quoted\"", "multi\nline"},
        {"cfg", "w/ partner, escaped"}, 99);
    std::vector<RunResult> records(cells.size());
    for (std::size_t i = 0; i < cells.size(); i++) {
        records[i].cell = cells[i];
        records[i].set("ipc", 0.1 * static_cast<double>(i + 1));
        records[i].set("gain_pct", -12.75 + static_cast<double>(i));
    }
    // One record with a sparse metric to exercise empty CSV fields.
    records[1].set("extra", 1.0 / 3.0);
    return records;
}

void
expectRecordsEqual(const std::vector<RunResult> &a,
                   const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].cell.index, b[i].cell.index);
        EXPECT_EQ(a[i].cell.workload, b[i].cell.workload);
        EXPECT_EQ(a[i].cell.config, b[i].cell.config);
        EXPECT_EQ(a[i].cell.seed, b[i].cell.seed);
        ASSERT_EQ(a[i].metrics().size(), b[i].metrics().size());
        for (const auto &[key, value] : a[i].metrics()) {
            EXPECT_TRUE(b[i].has(key));
            EXPECT_DOUBLE_EQ(value, b[i].get(key));
        }
    }
}

TEST(ResultSerializationTest, JsonRoundTrip)
{
    const auto records = sampleRecords();
    const std::string json = resultsToJson(records);
    const auto parsed = resultsFromJson(json);
    expectRecordsEqual(records, parsed);
    // Serialize-parse-serialize is a fixed point.
    EXPECT_EQ(json, resultsToJson(parsed));
}

TEST(ResultSerializationTest, CsvExportMatchesExpectedText)
{
    // RFC-4180 quoting of commas, quotes and newlines; an empty field
    // where a record lacks a metric.
    EXPECT_EQ(resultsToCsv(sampleRecords()),
              "cell,workload,config,seed,ipc,gain_pct,extra\n"
              "0,mcf,cfg,11400714819323204750,0.1,-12.75,\n"
              "1,mcf,\"w/ partner, escaped\",5948752311840759930,0.2,"
              "-11.75,0.3333333333333333\n"
              "2,\"a,b \"\"quoted\"\"\",cfg,15633863312697006263,"
              "0.30000000000000004,-10.75,\n"
              "3,\"a,b \"\"quoted\"\"\",\"w/ partner, escaped\","
              "12216290510129819096,0.4,-9.75,\n"
              "4,\"multi\nline\",cfg,16557341240219839745,0.5,-8.75,\n"
              "5,\"multi\nline\",\"w/ partner, escaped\","
              "8404368852063283713,0.6000000000000001,-7.75,\n");
}

TEST(ResultSerializationTest, EmptyRecords)
{
    EXPECT_EQ(resultsToJson({}), "[]");
    EXPECT_TRUE(resultsFromJson("[]").empty());
    EXPECT_EQ(resultsToCsv({}), "cell,workload,config,seed\n");
}

TEST(ResultSerializationTest, ParsesFullSinkDocument)
{
    ResultSink sink("unit_test");
    std::vector<RunResult> records = sampleRecords();
    sink.add(records);
    const auto parsed = resultsFromJson(sink.json());
    expectRecordsEqual(records, parsed);
}

TEST(ResultSinkTest, JsonDocumentShape)
{
    ResultSink sink("shape_test");
    Table t("A \"title\"");
    t.setHeader({"x", "y"});
    t.addRow({"1", "2"});

    testing::internal::CaptureStdout();
    sink.table(t);
    sink.note("a note");
    testing::internal::GetCapturedStdout();

    const std::string json = sink.json();
    EXPECT_NE(json.find("\"bench\": \"shape_test\""),
              std::string::npos);
    EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"A \\\"title\\\"\""), std::string::npos);
    EXPECT_NE(json.find("\"notes\": [\"a note\"]"),
              std::string::npos);
}

} // namespace
} // namespace ltc
