/**
 * @file
 * Tests for the workload registry: catalogue completeness, build-
 * ability, determinism, and structural sanity of every benchmark
 * generator.
 */

#include <gtest/gtest.h>

#include <set>

#include "test_sources.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"

namespace ltc
{
namespace
{

TEST(WorkloadsTest, CatalogueMatchesPaperSuite)
{
    // All SPEC CPU2000 except vpr (25 benchmarks) plus 3 Olden.
    const auto &cat = workloadCatalog();
    EXPECT_EQ(cat.size(), 28u);
    int olden = 0;
    int fp = 0;
    int intw = 0;
    for (const auto &info : cat) {
        switch (info.suite) {
          case Suite::Olden:
            olden++;
            break;
          case Suite::SPECfp:
            fp++;
            break;
          case Suite::SPECint:
            intw++;
            break;
          case Suite::Captured:
            ADD_FAILURE() << "catalogue holds no file-backed entries";
            break;
        }
        EXPECT_FALSE(info.description.empty()) << info.name;
        EXPECT_GT(info.refsPerIteration, 0u) << info.name;
    }
    EXPECT_EQ(olden, 3);
    EXPECT_EQ(fp, 14);
    EXPECT_EQ(intw, 11);
}

TEST(WorkloadsTest, NoVprAndKeyNamesPresent)
{
    auto names = workloadNames();
    std::set<std::string> set(names.begin(), names.end());
    EXPECT_EQ(set.count("vpr"), 0u);
    for (const char *name : {"mcf", "swim", "gcc", "em3d", "bh",
                             "treeadd", "wupwise", "gzip"}) {
        EXPECT_EQ(set.count(name), 1u) << name;
    }
}

TEST(WorkloadsTest, IsWorkload)
{
    EXPECT_TRUE(isWorkload("mcf"));
    EXPECT_FALSE(isWorkload("doom"));
}

TEST(WorkloadsDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeWorkload("doom"), ::testing::ExitedWithCode(1),
                "unknown workload");
    EXPECT_EXIT(workloadInfo("doom"), ::testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(WorkloadsDeathTest, NonPositiveScaleIsFatal)
{
    EXPECT_EXIT(makeWorkload("mcf", 1, 0.0),
                ::testing::ExitedWithCode(1), "scale");
}

TEST(WorkloadsTest, SuggestedRefsBounds)
{
    for (const auto &name : workloadNames()) {
        const std::uint64_t refs = suggestedRefs(name);
        EXPECT_GE(refs, 1'500'000u) << name;
        EXPECT_LE(refs, 10'000'000u) << name;
    }
}

TEST(WorkloadsTest, SuiteNames)
{
    EXPECT_STREQ(suiteName(Suite::SPECint), "SPECint");
    EXPECT_STREQ(suiteName(Suite::SPECfp), "SPECfp");
    EXPECT_STREQ(suiteName(Suite::Olden), "Olden");
}

TEST(WorkloadsTest, RefBudgetDefault)
{
    unsetenv("LTC_REFS");
    EXPECT_EQ(refBudget(123), 123u);
}

TEST(WorkloadsTest, RefBudgetEnvSuffixes)
{
    setenv("LTC_REFS", "2m", 1);
    EXPECT_EQ(refBudget(1), 2'000'000u);
    setenv("LTC_REFS", "500k", 1);
    EXPECT_EQ(refBudget(1), 500'000u);
    setenv("LTC_REFS", "777", 1);
    EXPECT_EQ(refBudget(1), 777u);
    unsetenv("LTC_REFS");
}

TEST(WorkloadsTest, SelectedWorkloadsQuickSubset)
{
    setenv("LTC_WORKLOADS", "quick", 1);
    auto names = selectedWorkloads();
    EXPECT_EQ(names.size(), 8u);
    unsetenv("LTC_WORKLOADS");
}

TEST(WorkloadsTest, SelectedWorkloadsList)
{
    setenv("LTC_WORKLOADS", "mcf,swim", 1);
    auto names = selectedWorkloads();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "mcf");
    EXPECT_EQ(names[1], "swim");
    unsetenv("LTC_WORKLOADS");
}

TEST(WorkloadsTest, SelectedWorkloadsDefaultAll)
{
    unsetenv("LTC_WORKLOADS");
    EXPECT_EQ(selectedWorkloads().size(), 28u);
}

/** Every workload must build and produce a deterministic stream. */
class WorkloadParam : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadParam, BuildsAndProducesRefs)
{
    auto src = makeWorkload(GetParam());
    ASSERT_NE(src, nullptr);
    MemRef ref;
    for (int i = 0; i < 1000; i++)
        ASSERT_TRUE(src->next(ref)) << "workload ended early";
}

TEST_P(WorkloadParam, DeterministicAcrossInstances)
{
    auto a = makeWorkload(GetParam(), 1);
    auto b = makeWorkload(GetParam(), 1);
    MemRef ra;
    MemRef rb;
    for (int i = 0; i < 5000; i++) {
        ASSERT_TRUE(a->next(ra));
        ASSERT_TRUE(b->next(rb));
        ASSERT_TRUE(ra == rb) << GetParam() << " diverged at " << i;
    }
}

TEST_P(WorkloadParam, ResetReplays)
{
    auto src = makeWorkload(GetParam(), 1);
    auto first = collect(*src, 3000);
    src->reset();
    auto second = collect(*src, 3000);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); i++)
        ASSERT_TRUE(first[i] == second[i])
            << GetParam() << " pos " << i;
}

TEST_P(WorkloadParam, AddressesAreBlockReasonable)
{
    auto src = makeWorkload(GetParam());
    MemRef ref;
    for (int i = 0; i < 2000; i++) {
        ASSERT_TRUE(src->next(ref));
        EXPECT_GT(ref.addr, 0u);
        EXPECT_LT(ref.addr, Addr{1} << 32);
        EXPECT_GT(ref.pc, 0u);
    }
}

TEST_P(WorkloadParam, ScaleChangesFootprint)
{
    // Doubling the scale should not break generation.
    auto src = makeWorkload(GetParam(), 1, 0.5);
    MemRef ref;
    for (int i = 0; i < 500; i++)
        ASSERT_TRUE(src->next(ref));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadParam,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace ltc
