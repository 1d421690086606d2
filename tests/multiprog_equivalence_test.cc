/**
 * @file
 * Multi-tenant schedule equivalence suite.
 *
 * TraceEngine::runSchedule — one call that hoists dispatch, cursors
 * and pull buffers outside the quantum loop — must be
 * indistinguishable from re-entering run() per quantum
 * (selectBucket + selectTenant + run). These tests drive
 * both paths over identical tenant sets and schedules — static and
 * churn-driven, on- and off-dispatch geometries, shared and
 * partitioned signature caches, 2 to 1024 tenants — and compare
 * every per-bucket counter and both caches exactly.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/ltcords.hh"
#include "sim/experiment.hh"
#include "sim/multiprog.hh"
#include "sim/trace_engine.hh"
#include "trace/primitives.hh"
#include "trace/trace.hh"

namespace ltc
{
namespace
{

/**
 * Cheap per-tenant sources: small pointer chases with distinct
 * layouts, shifted into disjoint address ranges (what runMultiProg's
 * ShiftSource wrapping does). Small enough that 1024 of them build in
 * milliseconds, miss-heavy enough to exercise the predictors.
 */
std::vector<std::unique_ptr<TraceSource>>
makeTenants(std::uint32_t n)
{
    std::vector<std::unique_ptr<TraceSource>> apps;
    for (std::uint32_t i = 0; i < n; i++) {
        PointerChaseParams p;
        p.nodes = 256 + (i & 3) * 128;
        p.seed = i + 1;
        p.mutateEveryIters = 2;
        p.mutateFraction = 0.05;
        apps.push_back(std::make_unique<ShiftSource>(
            std::make_unique<PointerChaseSource>(p),
            static_cast<Addr>(i) << 28));
    }
    return apps;
}

/**
 * makeTenants' first three sources cut to 1000, 250 and 5000
 * references: finite traces that end inside a schedule's budget.
 */
std::vector<std::unique_ptr<TraceSource>>
makeFiniteTenants(std::uint32_t n)
{
    const std::uint64_t limits[] = {1000, 250, 5000};
    auto apps = makeTenants(n);
    for (std::uint32_t i = 0; i < n; i++) {
        apps[i] = std::make_unique<LimitSource>(std::move(apps[i]),
                                                limits[i]);
    }
    return apps;
}

/** A schedule from the production generator (static or churn). */
std::vector<TraceEngine::ScheduleQuantum>
makeSchedule(std::uint32_t tenants, std::uint64_t quantum,
             std::uint64_t switches, std::uint64_t churn_seed)
{
    MultiProgConfig cfg;
    cfg.quantumRefs.assign(tenants, quantum);
    cfg.switches = switches;
    cfg.churnSeed = churn_seed;
    return buildMultiProgSchedule(cfg);
}

void
expectSameCoverage(const CoverageStats &a, const CoverageStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.uselessPrefetches, b.uselessPrefetches);
    EXPECT_EQ(a.early, b.early);
    for (unsigned t = 0;
         t < static_cast<unsigned>(Traffic::NumClasses); t++) {
        EXPECT_EQ(a.traffic.bytes(static_cast<Traffic>(t)),
                  b.traffic.bytes(static_cast<Traffic>(t)))
            << "traffic class " << t;
    }
}

/** What runSchedule consumed: its return value and per-bucket stats. */
struct ScheduleOutcome
{
    std::uint64_t done = 0;
    std::vector<CoverageStats> buckets;
};

/** Builds a fresh set of @p n tenant sources. */
using TenantFactory =
    std::vector<std::unique_ptr<TraceSource>> (*)(std::uint32_t n);

/**
 * The property itself: runSchedule over @p schedule must produce the
 * same per-bucket stats and cache counters as the per-quantum run()
 * loop it documents itself against.
 *
 * @return What the runSchedule side consumed.
 */
ScheduleOutcome
checkSchedule(const std::string &pred_name, std::uint32_t tenants,
              const std::vector<TraceEngine::ScheduleQuantum> &schedule,
              const HierarchyConfig &hc,
              std::uint32_t partitions = 1,
              TenantFactory make_apps = makeTenants)
{
    SCOPED_TRACE(pred_name + " x " + std::to_string(tenants) +
                 " tenants, " + std::to_string(partitions) +
                 " partitions");

    const auto make_pred =
        [&]() -> std::unique_ptr<Prefetcher> {
        if (pred_name == "none")
            return nullptr;
        if (partitions > 1) {
            LtcordsConfig lc = paperLtcords(hc, false);
            lc.sigCachePartitions = partitions;
            return std::make_unique<LtCords>(lc);
        }
        return makePredictor(pred_name, hc);
    };

    // One runSchedule call.
    auto apps_b = make_apps(tenants);
    auto pred_b = make_pred();
    TraceEngine sched(hc, pred_b.get(), tenants);
    std::vector<TraceEngine::TenantSlot> slots(tenants);
    for (std::uint32_t i = 0; i < tenants; i++) {
        slots[i].src = apps_b[i].get();
        slots[i].bucket = i;
    }
    const std::uint64_t done_b = sched.runSchedule(slots, schedule);

    // run() per quantum.
    auto apps_s = make_apps(tenants);
    auto pred_s = make_pred();
    TraceEngine perq(hc, pred_s.get(), tenants);
    std::uint64_t done_s = 0;
    for (const TraceEngine::ScheduleQuantum &q : schedule) {
        perq.selectBucket(q.tenant);
        if (pred_s)
            pred_s->selectTenant(q.tenant);
        done_s += perq.run(*apps_s[q.tenant], q.refs);
    }

    EXPECT_EQ(done_b, done_s);
    for (std::uint32_t i = 0; i < tenants; i++) {
        SCOPED_TRACE("bucket " + std::to_string(i));
        expectSameCoverage(sched.stats(i), perq.stats(i));
    }
    EXPECT_EQ(sched.hierarchy().l1d().accesses(),
              perq.hierarchy().l1d().accesses());
    EXPECT_EQ(sched.hierarchy().l1d().misses(),
              perq.hierarchy().l1d().misses());
    EXPECT_EQ(sched.hierarchy().l1d().evictions(),
              perq.hierarchy().l1d().evictions());
    EXPECT_EQ(sched.hierarchy().l2().accesses(),
              perq.hierarchy().l2().accesses());
    EXPECT_EQ(sched.hierarchy().l2().misses(),
              perq.hierarchy().l2().misses());

    ScheduleOutcome outcome;
    outcome.done = done_b;
    for (std::uint32_t i = 0; i < tenants; i++)
        outcome.buckets.push_back(sched.stats(i));
    return outcome;
}

TEST(MultiProgEquivalence, StaticScheduleAcrossTenantCounts)
{
    for (const std::uint32_t tenants : {2u, 4u, 33u}) {
        const auto schedule = makeSchedule(
            tenants, /*quantum=*/700,
            /*switches=*/static_cast<std::uint64_t>(tenants) * 3 + 1,
            /*churn_seed=*/0);
        for (const char *pred : {"none", "lt-cords", "ghb"})
            checkSchedule(pred, tenants, schedule, paperHierarchy());
    }
}

TEST(MultiProgEquivalence, ChurnSchedule)
{
    for (const std::uint32_t tenants : {4u, 33u}) {
        const auto schedule = makeSchedule(
            tenants, /*quantum=*/500,
            /*switches=*/static_cast<std::uint64_t>(tenants) * 4,
            /*churn_seed=*/0xC0FFEE + tenants);
        for (const char *pred : {"none", "lt-cords"})
            checkSchedule(pred, tenants, schedule, paperHierarchy());
    }
}

TEST(MultiProgEquivalence, ThousandTenants)
{
    // Fig. 11 at scale: 1024 tenants with churn, ~150 refs per
    // quantum — the regime where run()'s per-quantum re-entry cost
    // dominates and one runSchedule call must still match
    // it event-for-event.
    const std::uint32_t tenants = 1024;
    const auto schedule =
        makeSchedule(tenants, /*quantum=*/150, /*switches=*/1500,
                     /*churn_seed=*/99);
    checkSchedule("lt-cords", tenants, schedule, paperHierarchy());
}

TEST(MultiProgEquivalence, ReplacementPolicySweep)
{
    // Every policy plugin through the hoisted schedule loop — it
    // dispatches on (assoc, policy) once per schedule instead of once
    // per quantum, so Random's draw order and DeadBlock's mark wiring
    // must survive the quantum hoisting too.
    const auto schedule =
        makeSchedule(4, /*quantum=*/600, /*switches=*/17,
                     /*churn_seed=*/3);
    for (const ReplPolicy p : allReplPolicies) {
        SCOPED_TRACE(replPolicyName(p));
        HierarchyConfig hc = paperHierarchy();
        hc.l1d.policy = p;
        hc.l2.policy = p;
        checkSchedule("none", 4, schedule, hc);
        checkSchedule("lt-cords", 4, schedule, hc);
    }
}

TEST(MultiProgEquivalence, WritebackModelling)
{
    // modelWritebacks forces predictor-less runs off the trimmed
    // baseline body onto stepImpl; both predictor-less and predicted
    // runs must still match the per-quantum loop event-for-event.
    HierarchyConfig hc = paperHierarchy();
    hc.modelWritebacks = true;
    const auto schedule =
        makeSchedule(4, /*quantum=*/600, /*switches=*/17,
                     /*churn_seed=*/0);
    checkSchedule("none", 4, schedule, hc);
    checkSchedule("lt-cords", 4, schedule, hc);
}

TEST(MultiProgEquivalence, OffDispatchGeometry)
{
    // Associativities outside the static dispatch table take the
    // runtime-assoc kernel instantiation; it must agree too.
    HierarchyConfig hc = paperHierarchy();
    hc.l1d.assoc = 8;
    hc.l2.assoc = 4;
    const auto schedule =
        makeSchedule(4, /*quantum=*/600, /*switches=*/17,
                     /*churn_seed=*/0);
    checkSchedule("none", 4, schedule, hc);
    checkSchedule("lt-cords", 4, schedule, hc);
}

TEST(MultiProgEquivalence, PartitionedSignatureCache)
{
    const std::uint32_t tenants = 8;
    const auto schedule =
        makeSchedule(tenants, /*quantum=*/500,
                     /*switches=*/tenants * 4, /*churn_seed=*/5);
    checkSchedule("lt-cords", tenants, schedule, paperHierarchy(),
                  /*partitions=*/tenants);
}

TEST(MultiProgEquivalence, SharedModeMatchesTenantObliviousLoop)
{
    // Backward compatibility: with an unpartitioned signature cache,
    // selectTenant must not perturb a single stat — runSchedule must
    // match a per-quantum run() loop that never calls it.
    const std::uint32_t tenants = 4;
    const auto schedule =
        makeSchedule(tenants, /*quantum=*/800,
                     /*switches=*/tenants * 5, /*churn_seed=*/0);
    const HierarchyConfig hc = paperHierarchy();

    auto apps_b = makeTenants(tenants);
    auto pred_b = makePredictor("lt-cords", hc);
    TraceEngine sched(hc, pred_b.get(), tenants);
    std::vector<TraceEngine::TenantSlot> slots(tenants);
    for (std::uint32_t i = 0; i < tenants; i++) {
        slots[i].src = apps_b[i].get();
        slots[i].bucket = i;
    }
    sched.runSchedule(slots, schedule);

    auto apps_s = makeTenants(tenants);
    auto pred_s = makePredictor("lt-cords", hc);
    TraceEngine perq(hc, pred_s.get(), tenants);
    for (const TraceEngine::ScheduleQuantum &q : schedule) {
        perq.selectBucket(q.tenant);
        perq.run(*apps_s[q.tenant], q.refs); // no selectTenant
    }

    for (std::uint32_t i = 0; i < tenants; i++) {
        SCOPED_TRACE("bucket " + std::to_string(i));
        expectSameCoverage(sched.stats(i), perq.stats(i));
    }
}

TEST(MultiProgEquivalence, TenantTraceEndsMidQuantum)
{
    // Finite tenants whose traces end inside the budget: tenant 0
    // runs dry in its third quantum, tenant 1 inside its first, and
    // tenant 2 never does. Later quanta of a drained tenant consume
    // nothing, and a drained source stays drained across run() calls.
    const auto schedule = makeSchedule(3, /*quantum=*/400,
                                       /*switches=*/12,
                                       /*churn_seed=*/0);
    for (const char *pred_name : {"none", "lt-cords"}) {
        SCOPED_TRACE(pred_name);
        const ScheduleOutcome got =
            checkSchedule(pred_name, 3, schedule, paperHierarchy(),
                          /*partitions=*/1, makeFiniteTenants);
        EXPECT_EQ(got.done, 2850u);
        ASSERT_EQ(got.buckets.size(), 3u);
        EXPECT_EQ(got.buckets[0].accesses, 1000u);
        EXPECT_EQ(got.buckets[1].accesses, 250u);
        EXPECT_EQ(got.buckets[2].accesses, 1600u);

        auto apps = makeFiniteTenants(3);
        auto pred = makePredictor(pred_name, paperHierarchy());
        TraceEngine engine(paperHierarchy(), pred.get());
        EXPECT_EQ(engine.run(*apps[0], 4000), 1000u);
        EXPECT_EQ(engine.run(*apps[0], 4000), 0u);
        EXPECT_EQ(engine.stats().accesses, 1000u);
    }
}

TEST(MultiProgEquivalence, ScheduleGeneratorIsDeterministic)
{
    MultiProgConfig cfg;
    cfg.quantumRefs.assign(16, 250);
    cfg.switches = 200;
    cfg.churnSeed = 1234;
    const auto a = buildMultiProgSchedule(cfg);
    const auto b = buildMultiProgSchedule(cfg);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), cfg.switches);
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].tenant, b[i].tenant) << "quantum " << i;
        EXPECT_EQ(a[i].refs, b[i].refs) << "quantum " << i;
        ASSERT_LT(a[i].tenant, 16u);
    }

    // Static mode reproduces the historical round-robin exactly.
    cfg.churnSeed = 0;
    const auto s = buildMultiProgSchedule(cfg);
    for (std::size_t i = 0; i < s.size(); i++)
        EXPECT_EQ(s[i].tenant, i % 16) << "quantum " << i;
}

} // namespace
} // namespace ltc
