#include "cache/hierarchy.hh"

#include "util/logging.hh"

namespace ltc
{

const char *
hitLevelName(HitLevel level)
{
    switch (level) {
      case HitLevel::L1:
        return "L1";
      case HitLevel::L2:
        return "L2";
      case HitLevel::Memory:
        return "memory";
    }
    return "?";
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config), l1d_(config.l1d), l2_(config.l2)
{
    if (config_.l1d.lineBytes != config_.l2.lineBytes) {
        ltc_fatal("hierarchy requires equal L1/L2 line sizes, got ",
                  config_.l1d.lineBytes, " and ", config_.l2.lineBytes);
    }
}

PrefetchOutcome
CacheHierarchy::prefetch(Addr addr, Addr predicted_victim)
{
    PrefetchOutcome out;
    if (config_.perfectL1 || l1d_.probe(addr)) {
        out.alreadyInL1 = true;
        return out;
    }

    // Data passes through (and installs into) L2 on its way in; a
    // resident L2 copy makes the prefetch an on-chip transfer.
    out.l2Hit = l2_.probe(addr);
    if (!out.l2Hit) {
        // Waypoint install: the L1 copy tracks usefulness, so the L2
        // line must not be flagged as an untouched prefetch.
        out.l2Victim = victimOf(l2_.fill(addr, /*mark_prefetched=*/false));
    }

    out.l1Victim = l1VictimOf(l1d_.fillReplacing(addr, predicted_victim));
    // At most one classification entry per block: retire any stale
    // L2-side entry before writing the L1 line's.
    l2_.takeMeta(addr);
    l1d_.setMeta(addr, LineMetaFetched | (out.l2Hit ? 0 : LineMetaOffChip));
    return out;
}

PrefetchOutcome
CacheHierarchy::prefetchL2(Addr addr)
{
    PrefetchOutcome out;
    out.l2Hit = l2_.probe(addr);
    if (out.l2Hit)
        return out;
    out.l2Victim = victimOf(l2_.fill(addr));
    l1d_.takeMeta(addr);
    l2_.setMeta(addr, LineMetaFetched | LineMetaOffChip);
    return out;
}

void
CacheHierarchy::flush()
{
    l1d_.flush();
    l2_.flush();
}

} // namespace ltc
