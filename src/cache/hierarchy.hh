/**
 * @file
 * Two-level cache hierarchy (functional).
 *
 * L1D backed by a unified L2 backed by memory (Table 1 geometry by
 * default). The hierarchy reports, for every demand access, where the
 * data came from and what each level's replacement evicted — the
 * inputs the last-touch predictors consume and the events the engines
 * classify. Prefetches install into both levels (data returning from
 * memory passes through L2) and into L1D by replacing the predicted
 * dead block, or into L2 only.
 *
 * The hierarchy also keeps the engines' classification protocol: at
 * most one classification entry (LineMeta* bits) exists per block, on
 * whichever level's line the latest prefetch installed it. It moves an
 * entry between the levels where a victim or a hit needs the other
 * copy's, and charges a dirty L1 victim to its L2 copy under
 * modelWritebacks, at the point between the L1 and L2 steps where the
 * result can differ.
 */

#ifndef LTC_CACHE_HIERARCHY_HH
#define LTC_CACHE_HIERARCHY_HH

#include <cstdint>
#include <type_traits>
#include <utility>

#include "cache/cache.hh"
#include "cache/cache_config.hh"
#include "util/types.hh"

namespace ltc
{

/**
 * The engines' static-associativity dispatch table, in one place:
 * invoke @p f with two std::integral_constant associativities — a
 * way-scan-unrolled instantiation for the (2, 8) geometry of Table 1,
 * which every preset, bench and benchmark cell uses (the 4 MB L2
 * included), or (0, 0) (read the configuration at runtime) for
 * anything else. Both engines route their batched kernels through
 * this, so adding a geometry here extends every kernel at once; each
 * one adds a full set of kernel instantiations to both engines.
 */
template <typename F>
auto
dispatchByAssociativity(std::uint32_t l1_assoc, std::uint32_t l2_assoc,
                        F &&f)
{
    using std::integral_constant;
    if (l1_assoc == 2 && l2_assoc == 8) {
        return std::forward<F>(f)(
            integral_constant<std::uint32_t, 2>{},
            integral_constant<std::uint32_t, 8>{});
    }
    return std::forward<F>(f)(integral_constant<std::uint32_t, 0>{},
                              integral_constant<std::uint32_t, 0>{});
}

/**
 * The full static dispatch for a batched engine kernel: associativity
 * pair (dispatchByAssociativity) × replacement policy
 * (dispatchReplPolicy, cache/repl_policy.hh). Invokes @p f with two
 * std::integral_constant associativities and a policy tag — concrete
 * when both levels share one policy, PolicyAuto otherwise — so a
 * kernel instantiated through here devirtualizes the whole
 * per-reference decision chain.
 */
template <typename F>
auto
dispatchHierarchyKernel(const CacheConfig &l1, const CacheConfig &l2,
                        F &&f)
{
    return dispatchByAssociativity(
        l1.assoc, l2.assoc, [&](auto a1, auto a2) {
            return dispatchReplPolicy(
                l1.policy, l2.policy,
                [&](auto pol) { return f(a1, a2, pol); });
        });
}

/** Configuration for the two-level hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1d = CacheConfig::l1d();
    CacheConfig l2 = CacheConfig::l2();
    /**
     * Perfect L1D: every access hits (the paper's upper-bound
     * configuration in Table 3).
     */
    bool perfectL1 = false;
    /**
     * Model writeback traffic: dirty victims propagate to the next
     * level (L1 -> L2 via Cache::setDirty, L2 -> memory as Writeback
     * bus bytes; see Victim::writeback). Off by default — the
     * committed goldens predate the dirty-bit fix, and the paper's
     * Figure 12 decomposition counts fetch traffic only — and routed
     * through the engines' full per-reference bodies (stepImpl) when
     * on.
     */
    bool modelWritebacks = false;
};

/** Where a demand access was satisfied. */
enum class HitLevel
{
    L1,
    L2,
    Memory,
};

/**
 * The block one level's replacement evicted, as the hierarchy reports
 * it: the event behind Fig. 8's incorrect and early classes and
 * Fig. 12's incorrect-prefetch and writeback traffic, which the
 * engines classify.
 */
struct Victim
{
    /** A valid block was evicted; the other fields are unset if not. */
    bool evicted = false;
    /** Prefetched and never referenced by demand: a useless prefetch. */
    bool untouchedPrefetch = false;
    /** Dirty under modelWritebacks: the eviction owes a writeback. */
    bool writeback = false;
    /**
     * L1 victims only: the block's L2 copy absorbed the writeback (it
     * is now dirty there), so it stays on chip.
     */
    bool absorbed = false;
    /**
     * The block's classification entry (LineMeta* bits). For an
     * untouched L1 victim whose line carried none, the entry of its
     * L2 copy, which the hierarchy took.
     */
    std::uint8_t meta = 0;
    /** Block-aligned address of the evicted block. */
    Addr addr = invalidAddr;
};

/** Result of one demand access through the hierarchy. */
struct HierOutcome
{
    HitLevel level = HitLevel::L1;
    /** The L1 hit consumed an untouched prefetched block. */
    bool l1HitOnPrefetch = false;
    /** The L2 hit consumed an untouched prefetched block. */
    bool l2HitOnPrefetch = false;
    /**
     * Classification entry consumed from the hitting L1 line; on a
     * prefetch hit whose line carried none, its L2 copy's, which the
     * hierarchy took.
     */
    std::uint8_t l1Meta = 0;
    /** Classification entry consumed from the hitting L2 line. */
    std::uint8_t l2Meta = 0;
    std::uint32_t l1Set = 0;
    /** L1D eviction caused by this access (fodder for last touches). */
    Victim l1Victim;
    /** L2 eviction caused by this access. */
    Victim l2Victim;
    bool l1Hit() const { return level == HitLevel::L1; }
};

/** Result of a prefetch insertion. */
struct PrefetchOutcome
{
    /** Block already resident in L1D: the prefetch was useless. */
    bool alreadyInL1 = false;
    /** Data found in L2 (fill is cheap); otherwise fetched off chip. */
    bool l2Hit = false;
    /** L2 eviction caused by the L2 install, if any. */
    Victim l2Victim;
    /** L1D eviction caused by the fill (prefetch() only). */
    Victim l1Victim;
};

class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig &config);

    /**
     * Demand access from the core. Defined inline below — together
     * with the inline Cache::access it forms the engines' tight
     * per-reference inner loop.
     *
     * @tparam L1Assoc,L2Assoc Compile-time associativities for the
     *         way scans, or 0 (the default) to read them from the
     *         configurations. The engines' batched kernels dispatch
     *         to matching non-zero instantiations (the same contract
     *         as Cache::access / Cache::accessBaseline).
     * @tparam Policy Replacement-policy plugin shared by both levels,
     *         or PolicyAuto (the default) for per-call dispatch; the
     *         engines obtain a concrete tag via
     *         dispatchHierarchyKernel only when the two levels'
     *         configured policies agree.
     */
    template <std::uint32_t L1Assoc = 0, std::uint32_t L2Assoc = 0,
              typename Policy = PolicyAuto>
    HierOutcome access(Addr addr, MemOp op);

    /**
     * Whether a predictor-less engine may run the trimmed
     * Cache::accessBaseline body instead of access(): no perfect L1
     * (the trimmed body always looks up the tags), no writeback
     * modelling (the body reports no victims, so dirty ones would go
     * uncharged) and no prefetch fill in either cache (hand-injected
     * fills leave prefetched/meta state on lines the body skips).
     */
    bool
    baselineExact() const
    {
        return !config_.perfectL1 && !config_.modelWritebacks &&
            l1d_.prefetchFills() == 0 && l2_.prefetchFills() == 0;
    }

    /**
     * Feed a last-touch prediction to dead-block-aware replacement:
     * mark @p addr's line predicted dead (Cache::markDead) in each
     * level whose policy is ReplPolicy::DeadBlock. A last touch is
     * program-wide, so the L2 copy is just as dead as the L1 one.
     * No-op for invalidAddr (no prediction) and for other policies.
     */
    void
    markDead(Addr addr)
    {
        if (addr == invalidAddr)
            return;
        if (config_.l1d.policy == ReplPolicy::DeadBlock)
            l1d_.markDead(addr);
        if (config_.l2.policy == ReplPolicy::DeadBlock)
            l2_.markDead(addr);
    }

    /**
     * Prefetch @p addr into L1D replacing @p predicted_victim, and
     * install into L2 on the way. The block's classification entry
     * moves to the L1 line (off chip unless L2 held the block). A
     * block already in L1D, which under perfectL1 is every block, is
     * reported as alreadyInL1 and neither level changes. Under an L1D
     * DeadBlock policy the predicted victim is replaced only while it
     * still carries its markDead() mark: a demand touch since then
     * revived it, so the policy picks the victim instead.
     */
    PrefetchOutcome prefetch(Addr addr, Addr predicted_victim);

    /**
     * Conventional (GHB-style) prefetch of @p addr into L2 only. A
     * resident block is reported as l2Hit and left alone; otherwise
     * the block is installed as an untouched prefetch and its
     * classification entry, an off-chip one, moves to the L2 line.
     */
    PrefetchOutcome prefetchL2(Addr addr);

    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const HierarchyConfig &config() const { return config_; }

  private:
    /** The record of @p c's eviction, before any cross-level rule. */
    Victim
    victimOf(const CacheOutcome &c) const
    {
        Victim v;
        v.evicted = c.evicted;
        v.untouchedPrefetch = c.victimUntouchedPrefetch;
        v.writeback = c.victimDirty && config_.modelWritebacks;
        v.meta = c.victimMeta;
        v.addr = c.victimAddr;
        return v;
    }

    /**
     * @p l1's victim with the L1-side rules applied; called right
     * after the L1 step, before any L2 step can evict the block's L2
     * copy. A dirty victim writes back into its L2 copy when one is
     * left (no allocation on writeback: the block just left). An
     * untouched prefetched victim whose line carried no entry takes
     * its L2 copy's, where a later L2-only prefetch put it.
     */
    Victim
    l1VictimOf(const CacheOutcome &l1)
    {
        Victim v = victimOf(l1);
        if (v.writeback)
            v.absorbed = l2_.setDirty(v.addr);
        if (v.untouchedPrefetch && !(v.meta & LineMetaFetched))
            v.meta = l2_.takeMeta(v.addr);
        return v;
    }

    HierarchyConfig config_;
    Cache l1d_;
    Cache l2_;
};

template <std::uint32_t L1Assoc, std::uint32_t L2Assoc, typename Policy>
inline HierOutcome
CacheHierarchy::access(Addr addr, MemOp op)
{
    HierOutcome out;

    if (config_.perfectL1) {
        out.level = HitLevel::L1;
        return out;
    }

    const CacheOutcome l1 = l1d_.access<L1Assoc, Policy>(addr, op);
    out.l1Set = l1.set;
    if (l1.hit) {
        out.level = HitLevel::L1;
        out.l1HitOnPrefetch = l1.hitUntouchedPrefetch;
        // The touch consumed the line's entry; one a later L2-only
        // prefetch moved to the L2 copy belongs to this hit too.
        out.l1Meta = l1.meta;
        if (l1.hitUntouchedPrefetch && !(l1.meta & LineMetaFetched))
            out.l1Meta = l2_.takeMeta(addr);
        return out;
    }

    out.l1Victim = l1VictimOf(l1);

    const CacheOutcome l2 = l2_.access<L2Assoc, Policy>(addr, op);
    out.l2Victim = victimOf(l2);
    if (l2.hit) {
        out.level = HitLevel::L2;
        out.l2HitOnPrefetch = l2.hitUntouchedPrefetch;
        out.l2Meta = l2.meta;
        return out;
    }

    out.level = HitLevel::Memory;
    return out;
}

} // namespace ltc

#endif // LTC_CACHE_HIERARCHY_HH
