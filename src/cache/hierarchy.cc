#include "cache/hierarchy.hh"

#include "util/logging.hh"

namespace ltc
{

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
    // Under DeadBlock the directed replacement is gated on the dead
    // mark surviving until the install: a demand touch in between
    // revived the block (the prediction was wrong), so spare it and
    // let the policy pick the victim (which itself prefers other
    // marked-dead ways).
    if (config_.l1d.policy == ReplPolicy::DeadBlock &&
        predicted_victim != invalidAddr && !l1d_.isDead(predicted_victim)) {
        predicted_victim = invalidAddr;
    }

    // Data passes through (and installs into) L2 on its way in; a
    // resident L2 copy makes the prefetch an on-chip transfer. The
    // waypoint install carries no entry and no untouched flag: the L1
    // copy tracks usefulness.
    const CacheOutcome l2 = l2_.fill(addr, invalidAddr, 0);
    out.l2Hit = l2.hit;
    out.l2Victim = victimOf(l2);
    // At most one classification entry per block: a resident L2 copy
    // may hold a stale one from an L2-only prefetch; retire it.
    if (out.l2Hit)
        l2_.takeMeta(addr);
    out.l1Victim = l1VictimOf(l1d_.fill(
        addr, predicted_victim,
        LineMetaFetched | (out.l2Hit ? 0 : LineMetaOffChip)));
    return out;
}

PrefetchOutcome
CacheHierarchy::prefetchL2(Addr addr)
{
    PrefetchOutcome out;
    const CacheOutcome l2 =
        l2_.fill(addr, invalidAddr, LineMetaFetched | LineMetaOffChip);
    out.l2Hit = l2.hit;
    out.l2Victim = victimOf(l2);
    // The installed L2 line now holds the block's entry; retire the
    // L1 copy's, if any.
    if (!out.l2Hit)
        l1d_.takeMeta(addr);
    return out;
}

} // namespace ltc
