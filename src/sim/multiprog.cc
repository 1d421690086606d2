#include "sim/multiprog.hh"

#include "util/logging.hh"
#include "util/random.hh"

namespace ltc
{

namespace
{

/** Address shift between consecutive applications' spaces. */
constexpr Addr tenantStride = Addr{1} << 32;

/** One pass over the schedule; returns per-app stats. */
std::vector<CoverageStats>
interleavedPass(const MultiProgConfig &config, Prefetcher *pred,
                std::vector<std::unique_ptr<TraceSource>> &apps,
                const std::vector<TraceEngine::ScheduleQuantum> &schedule)
{
    const auto n = static_cast<std::uint32_t>(apps.size());
    TraceEngine engine(config.hier, pred, n);
    std::vector<TraceEngine::TenantSlot> tenants(n);
    for (std::uint32_t i = 0; i < n; i++) {
        tenants[i].src = apps[i].get();
        tenants[i].bucket = i;
    }
    engine.runSchedule(tenants, schedule);

    std::vector<CoverageStats> stats;
    for (std::uint32_t i = 0; i < n; i++)
        stats.push_back(engine.stats(i));
    return stats;
}

std::vector<std::unique_ptr<TraceSource>>
shiftApps(std::vector<std::unique_ptr<TraceSource>> apps)
{
    std::vector<std::unique_ptr<TraceSource>> shifted;
    for (std::size_t i = 0; i < apps.size(); i++) {
        shifted.push_back(std::make_unique<ShiftSource>(
            std::move(apps[i]),
            tenantStride * static_cast<Addr>(i)));
    }
    return shifted;
}

} // namespace

std::vector<TraceEngine::ScheduleQuantum>
buildMultiProgSchedule(const MultiProgConfig &config)
{
    const auto n =
        static_cast<std::uint32_t>(config.quantumRefs.size());
    ltc_assert(n > 0, "schedule needs at least one app");
    std::vector<TraceEngine::ScheduleQuantum> schedule;
    schedule.reserve(config.switches);

    if (config.churnSeed == 0) {
        // Static round-robin, bit-identical to the historical
        // `app = switch % n` interleaving.
        std::uint32_t app = 0;
        for (std::uint64_t s = 0; s < config.switches; s++) {
            schedule.push_back({app, config.quantumRefs[app]});
            app++;
            if (app == n)
                app = 0;
        }
        return schedule;
    }

    // Churn model: a live set evolves under seeded arrivals and
    // deaths while the scheduler round-robins over it, with the
    // occasional out-of-order swap. Everything is a function of the
    // seed, so a schedule replays exactly (the cell cache depends on
    // that).
    Rng rng(config.churnSeed);
    std::vector<std::uint8_t> live(n, 0);
    std::uint32_t live_count = 0;
    for (std::uint32_t i = 0; i < n; i++) {
        if (rng.chance(0.5)) {
            live[i] = 1;
            live_count++;
        }
    }
    if (live_count == 0) {
        live[0] = 1;
        live_count = 1;
    }

    const auto next_live = [&](std::uint32_t from) {
        std::uint32_t i = from;
        for (;;) {
            i++;
            if (i == n)
                i = 0;
            if (live[i])
                return i;
        }
    };

    std::uint32_t cur = live[0] ? 0 : next_live(0);
    for (std::uint64_t s = 0; s < config.switches; s++) {
        // Arrival or death (never kills the last live tenant).
        if (rng.chance(0.125)) {
            const std::uint32_t pick = rng.below(n);
            if (live[pick]) {
                if (live_count > 1) {
                    live[pick] = 0;
                    live_count--;
                    if (pick == cur)
                        cur = next_live(cur);
                }
            } else {
                live[pick] = 1;
                live_count++;
            }
        }
        // Out-of-order context swap: jump ahead in the rotation.
        if (rng.chance(0.125)) {
            for (std::uint32_t h = rng.below(live_count); h > 0; h--)
                cur = next_live(cur);
        }
        schedule.push_back({cur, config.quantumRefs[cur]});
        cur = next_live(cur);
    }
    return schedule;
}

std::vector<CoverageStats>
runMultiProg(const MultiProgConfig &config, Prefetcher *pred,
             std::vector<std::unique_ptr<TraceSource>> apps)
{
    ltc_assert(!apps.empty(), "multiprog needs at least one app");
    ltc_assert(config.quantumRefs.size() == apps.size(),
               "quantumRefs must have one entry per app");
    for (auto q : config.quantumRefs)
        ltc_assert(q > 0, "zero-length scheduling quantum");

    auto shifted = shiftApps(std::move(apps));
    const auto schedule = buildMultiProgSchedule(config);

    // Baseline pass for opportunity.
    std::vector<CoverageStats> base =
        interleavedPass(config, nullptr, shifted, schedule);

    // Reset every source and run the predictor pass on the identical
    // interleaving.
    for (auto &src : shifted)
        src->reset();
    std::vector<CoverageStats> stats =
        interleavedPass(config, pred, shifted, schedule);

    for (std::size_t i = 0; i < stats.size(); i++)
        stats[i].opportunity = base[i].l1Misses;
    return stats;
}

} // namespace ltc
