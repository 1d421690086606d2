/**
 * @file
 * Functional set-associative cache model.
 *
 * This is the substrate under every predictor study: it exposes the
 * victim of each replacement (the raw material of last-touch
 * signatures), supports prefetch fills that replace a *predicted*
 * dead block rather than the replacement-policy victim (how DBCP and
 * LT-cords place data directly into L1D without pollution, Section 2),
 * and reports every eviction, victim state included, in the outcome
 * of the access or fill that caused it.
 */

#ifndef LTC_CACHE_CACHE_HH
#define LTC_CACHE_CACHE_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/repl_policy.hh"
#include "cache/set_scan.hh"
#include "util/flat_map.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace ltc
{

/**
 * Engine-owned per-line metadata bits.
 *
 * The simulation engines used to keep side tables (hash maps keyed by
 * block address) describing how a prefetched line was fetched; those
 * probes sat on the per-reference hot path. The bits now live on the
 * cache line itself and travel with it: access() reports and clears
 * them (CacheOutcome::meta), and an eviction reports the victim's
 * (CacheOutcome::victimMeta). The cache never interprets them.
 */
enum : std::uint8_t
{
    /** A fetched-off-chip classification entry exists for the line. */
    LineMetaFetched = 0x1,
    /** The prefetch that filled the line crossed the chip boundary. */
    LineMetaOffChip = 0x2,
};

/** Whether @p meta is the entry of a prefetch fetched off chip. */
constexpr bool
fetchedOffChip(std::uint8_t meta)
{
    return (meta & LineMetaFetched) && (meta & LineMetaOffChip);
}

/** Result of one cache access or fill. */
struct CacheOutcome
{
    bool hit = false;
    /** The hit consumed a prefetched, never-yet-referenced block. */
    bool hitUntouchedPrefetch = false;
    /** A valid block was evicted by this access. */
    bool evicted = false;
    /** The evicted block was dirty (writeback owed), if evicted. */
    bool victimDirty = false;
    /**
     * The evicted block had been prefetched and never referenced by
     * demand (a useless prefetch), if evicted.
     */
    bool victimUntouchedPrefetch = false;
    /** The evicted line's engine-owned metadata bits, if evicted. */
    std::uint8_t victimMeta = 0;
    /** Block-aligned address of the evicted block (if evicted). */
    Addr victimAddr = invalidAddr;
    /** Set index touched by the access. */
    std::uint32_t set = 0;
    /**
     * On a hit: the line's engine-owned metadata bits, which the
     * access consumed (the line's copy is cleared — a demand touch
     * ends the line's prefetched life, so its classification entry
     * moves to the outcome).
     */
    std::uint8_t meta = 0;
};

/**
 * Set-associative cache with pluggable replacement. Data are not
 * modelled (trace-driven). Each way is packed into 16 bytes — one
 * word holding the block tag plus all status/metadata bits, one word
 * holding the replacement stamp — so a whole 8-way set spans two host
 * cache lines and the lookup/victim scans of the simulation hot path
 * stay memory-cheap. The static-associativity instantiations route
 * those scans through the SIMD kernels of cache/set_scan.hh.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Demand access: on a miss the block is filled, evicting the
     * replacement-policy victim. Defined inline below: this is the
     * innermost call of the engines' batched run loops, and inlining
     * the whole lookup/insert chain there is worth ~2x simulator
     * throughput.
     *
     * @tparam StaticAssoc Compile-time associativity, or 0 (the
     *         default) to read it from the configuration. The
     *         engines' batched kernels dispatch to a non-zero
     *         instantiation for the common geometries so the compiler
     *         unrolls the way scans (the same contract as
     *         accessBaseline); callers must pass either 0 or exactly
     *         config().assoc.
     * @tparam Policy Replacement-policy plugin (cache/repl_policy.hh),
     *         or PolicyAuto (the default) to dispatch on the
     *         configured policy per call. The engines' batched
     *         kernels instantiate the concrete policy alongside
     *         StaticAssoc so the whole decision chain devirtualizes;
     *         callers must pass either PolicyAuto or the policy
     *         matching config().policy.
     */
    template <std::uint32_t StaticAssoc = 0, typename Policy = PolicyAuto>
    CacheOutcome access(Addr addr, MemOp op);

    /**
     * Register-resident counter state for the baseline batch kernel.
     * The stamp counter and occupancy statistics live in this POD for
     * the duration of a batch, so the inner loop carries no
     * loop-carried dependences through the cache object's memory.
     * Snapshot with baselineCursor(), thread through every
     * accessBaseline() of the batch, write back with
     * commitBaseline().
     */
    struct BaselineCursor
    {
        std::uint64_t stamp = 0;
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    /** Snapshot the counters for a baseline batch. */
    BaselineCursor
    baselineCursor() const
    {
        return {stamp_, accesses_, misses_, evictions_};
    }

    /** Write a batch's counters back (pairs with baselineCursor()). */
    void
    commitBaseline(const BaselineCursor &cur)
    {
        stamp_ = cur.stamp;
        accesses_ = cur.accesses;
        misses_ = cur.misses;
        evictions_ = cur.evictions;
    }

    /**
     * Trimmed demand access for baseline (demand-only) runs: same
     * state transitions as access() but reports only hit/miss and
     * counts into @p cur instead of the member statistics.
     *
     * @tparam StaticAssoc Compile-time associativity, or 0 to read it
     *         from the configuration. Engines dispatch to a non-zero
     *         instantiation when the geometry matches a common one
     *         (the constant lets the compiler unroll the way scans,
     *         worth ~2x on miss-heavy streams); callers must pass
     *         either 0 or exactly config().assoc.
     *
     * Preconditions the caller must guarantee (the predictor-less
     * engine fast path does, by construction): no line carries
     * prefetched/metadata state, and the caller needs nothing from a
     * miss's victim (no writeback modelling) — under those, skipping
     * the outcome struct is behaviour-identical, and the batch/scalar
     * equivalence tests pin it.
     *
     * @tparam Policy PolicyAuto or the policy matching
     *         config().policy, as for access().
     */
    template <std::uint32_t StaticAssoc = 0, typename Policy = PolicyAuto>
    bool accessBaseline(Addr addr, MemOp op, BaselineCursor &cur);

    /**
     * Prefetch fill: install @p addr over @p predicted_victim if that
     * block is resident in the target set, else over the policy
     * victim (invalidAddr = no prediction). The line is written with
     * its classification entry @p meta (LineMeta* bits) and, when
     * @p meta is non-zero, flagged as an untouched prefetch: the level
     * that holds a block's entry is the level that tracks its
     * usefulness, and a waypoint install passes 0 for neither. An
     * already-resident block is reported as a hit and its line is
     * left unchanged.
     */
    CacheOutcome fill(Addr addr, Addr predicted_victim, std::uint8_t meta);

    /**
     * Non-mutating residence check. Inline: it runs per prefetch
     * request, in the timing engine's enqueue and drain filter and in
     * CacheHierarchy::prefetch's L1D check.
     */
    bool probe(Addr addr) const { return findIndex(addr) != noWay; }

    /** True if the block was brought in by a prefetch and not yet
     *  referenced by demand. */
    bool isUntouchedPrefetch(Addr addr) const;

    /**
     * Set the dirty bit of @p addr's line (an inclusive outer level
     * absorbing a dirty victim writeback from the level above).
     * No-op when the block is not resident; returns whether it was.
     */
    bool setDirty(Addr addr);

    /**
     * Mark @p addr's line as predicted dead. Only meaningful under
     * ReplPolicy::DeadBlock, whose victim selection prefers marked
     * ways (CacheHierarchy::markDead feeds it the predictor's
     * last-touch victim predictions); a later demand touch clears the
     * mark. No-op when the block is not resident; returns whether it
     * was.
     */
    bool markDead(Addr addr);

    /**
     * Whether @p addr is resident and still carries a dead mark (a
     * demand touch since markDead clears it). CacheHierarchy::prefetch
     * uses this to gate directed prefetch replacement under DeadBlock:
     * a revived block is spared and the policy picks the victim.
     */
    bool isDead(Addr addr) const;

    /**
     * Read and clear the engine-owned metadata bits of @p addr's
     * line; 0 when the block is not resident.
     */
    std::uint8_t takeMeta(Addr addr);

    /**
     * Record an engine-owned mark for @p addr, a block that was just
     * evicted from this cache (the trace engine's "early eviction"
     * candidates). Marked blocks are by definition NOT resident, so
     * the mark cannot ride on a line; it is a bit in a side map of
     * region bitmaps (evictMarks_). Predictor runs accumulate marks
     * for every live block a prefetch displaced and the program has
     * not re-missed yet — hundreds of thousands on the long-running
     * generated workloads — so the store is a hash map, not a scan.
     * Inserting an already-marked block is a no-op.
     */
    void markEvicted(Addr addr);

    /**
     * Remove the eviction mark for @p addr if present; returns
     * whether it was. Engines call this whenever the block becomes
     * resident again (demand miss or prefetch fill). Inline: this
     * sits on the engines' per-miss path. Predictor-less runs never
     * mark, so their check is one size load; otherwise it is one
     * probe of the region map.
     */
    bool
    clearEvictedMark(Addr addr)
    {
        if (evictMarks_.empty())
            return false;
        const std::uint64_t block = addr >> lineBits_;
        const Addr region = block >> markRegionBits;
        std::uint64_t *word = evictMarks_.find(region);
        const std::uint64_t bit = std::uint64_t{1}
            << (block & (markRegionBlocks - 1));
        if (!word || !(*word & bit))
            return false;
        *word &= ~bit;
        if (*word == 0)
            evictMarks_.erase(region);
        return true;
    }

    /**
     * Walk the whole structure and LTC_CHECK every representation
     * invariant of the packed-tag SoA layout: invalid lines are
     * all-zero, valid tag words map back to their own set, no block
     * is resident twice in a set, replacement stamps never run ahead
     * of the global stamp counter, the eviction-mark map is a sound
     * open-addressed table whose region words are non-zero and mark
     * only non-resident blocks, and the counters are mutually
     * consistent. Cold path: called at engine batch boundaries when
     * auditing is enabled (see util/check.hh) and directly by the
     * property/death-test suites. Panics on the first violation.
     */
    void auditInvariants() const;

    const CacheConfig &config() const { return config_; }

    /** Block-aligned address for @p addr under this cache's geometry. */
    Addr blockAlign(Addr addr) const
    {
        return addr & ~static_cast<Addr>(config_.lineBytes - 1);
    }

    /** Set index for @p addr. */
    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr >> lineBits_) & setMask_);
    }

    // Occupancy statistics.
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t prefetchFills() const { return prefetchFills_; }
    double
    missRate() const
    {
        return accesses_ ? static_cast<double>(misses_) /
                static_cast<double>(accesses_)
                         : 0.0;
    }

  private:
    // Packed tag word: (block number & tagMask) << tagShift, OR'd
    // with the status bits; 0 = invalid. The layout constants
    // (lineValid .. tagSelect) live at namespace scope in
    // cache/repl_policy.hh, shared with the replacement-policy
    // plugins whose per-line state rides in the policy bits. Tag
    // words and replacement stamps live in parallel row-major arrays
    // (structure-of-arrays): a whole 8-way set's tags span a single
    // host cache line, so the lookup scan of the simulation hot path
    // touches minimal memory, and the stamps are only read by victim
    // selection (LRU last-use, updated on hit; FIFO fill stamp,
    // written at insert — the policies never need both at once).

    /** Block number of @p addr, masked to the packed tag width. */
    std::uint64_t
    tagOf(Addr addr) const
    {
        return (addr >> lineBits_) & tagMask;
    }

    /** Block-aligned address stored in a line's tag word. */
    Addr
    lineAddr(std::uint64_t tag_flags) const
    {
        return (tag_flags >> tagShift) << lineBits_;
    }

    static std::uint8_t
    lineMeta(std::uint64_t tag_flags)
    {
        return static_cast<std::uint8_t>(
            (tag_flags >> lineMetaShift) & 0x3);
    }

    /** No way holds the block. */
    static constexpr std::size_t noWay = ~std::size_t{0};

    /** Index of @p addr's line in tagFlags_/stamps_; noWay if absent. */
    std::size_t findIndex(Addr addr) const;
    /**
     * Way in @p tags (one set's tag words) whose (word & tagSelect)
     * equals @p want; noWay if absent. A non-zero StaticAssoc takes
     * the set-scan kernel (SIMD when compiled in, cache/set_scan.hh);
     * 0 reads the associativity from the configuration.
     */
    template <std::uint32_t StaticAssoc = 0>
    std::size_t matchWay(const std::uint64_t *tags,
                         std::uint64_t want) const;
    /** @tparam StaticAssoc 0 or exactly config().assoc (see access).
     *  @tparam Policy PolicyAuto or the configured policy's plugin. */
    template <std::uint32_t StaticAssoc = 0, typename Policy = PolicyAuto>
    std::uint32_t victimWay(std::uint32_t set);
    /** Install @p tag in @p way of @p set with the status bits
     *  @p status (lineDirty, linePrefetched, LineMeta* entry). */
    template <typename Policy = PolicyAuto>
    CacheOutcome insert(std::uint64_t tag, std::uint32_t set,
                        std::uint32_t way, std::uint64_t status);

    CacheConfig config_;
    unsigned lineBits_;
    std::uint64_t setMask_;
    std::vector<std::uint64_t> tagFlags_; //!< sets x ways, row-major
    std::vector<std::uint64_t> stamps_;   //!< parallel to tagFlags_
    /** Blocks per eviction-mark region: one bit each in a word. */
    static constexpr unsigned markRegionBits = 6;
    static constexpr std::uint64_t markRegionBlocks =
        std::uint64_t{1} << markRegionBits;
    /**
     * Eviction marks (markEvicted()), keyed by region (block number
     * >> markRegionBits, a 4 KiB page at 64-byte lines); bit b of a
     * region's word marks the region's b-th block. A region is erased
     * when its last mark clears, so every stored word is non-zero.
     * Marks cluster: the long-running generated workloads fill 62-64
     * of a region's 64 bits, so ~300K marks fit in ~5K entries
     * (~128 KB, host-cache resident).
     */
    AddrMap<std::uint64_t> evictMarks_;
    std::uint64_t stamp_ = 0;
    Rng rng_{12345};
    /** Table state for the policies that need it (DRRIP, SHiP). */
    PolicyState policyState_;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t prefetchFills_ = 0;

    /** Death-test hook: lets the invariant suite corrupt state. */
    friend struct TestPeer;
};

// ------------------------------------------------------ hot path
//
// The demand-access chain (findIndex -> access -> insert) is defined
// inline here so the engines' batched run loops compile it into one
// tight loop: no call boundary is crossed per reference.
//
// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

template <std::uint32_t StaticAssoc>
inline std::size_t
Cache::matchWay(const std::uint64_t *tags, std::uint64_t want) const
{
    if constexpr (StaticAssoc != 0) {
        // A block is resident at most once per set, so the match mask
        // holds at most one bit and firstWay() is exact, not a
        // tie-break (pinned by auditInvariants / cache_test).
        const std::uint32_t m =
            maskedEqBits<StaticAssoc>(tags, tagSelect, want);
        return m ? firstWay(m) : noWay;
    } else {
        for (std::uint32_t w = 0; w < config_.assoc; w++) {
            if ((tags[w] & tagSelect) == want)
                return w;
        }
        return noWay;
    }
}

inline std::size_t
Cache::findIndex(Addr addr) const
{
    const std::uint64_t tag = tagOf(addr);
    const std::uint32_t set =
        static_cast<std::uint32_t>((addr >> lineBits_) & setMask_);
    const std::uint64_t want = (tag << tagShift) | lineValid;
    const std::size_t base =
        static_cast<std::size_t>(set) * config_.assoc;
    const std::size_t way = matchWay<0>(tagFlags_.data() + base, want);
    return way == noWay ? noWay : base + way;
}

template <std::uint32_t StaticAssoc, typename Policy>
inline std::uint32_t
Cache::victimWay(std::uint32_t set)
{
    if constexpr (std::is_same_v<Policy, PolicyAuto>) {
        return withPolicy(config_.policy, [&](auto pol) {
            return victimWay<StaticAssoc, decltype(pol)>(set);
        });
    } else {
        const std::uint32_t assoc =
            StaticAssoc ? StaticAssoc : config_.assoc;
        const std::size_t base = static_cast<std::size_t>(set) * assoc;
        // Prefer an invalid way: the lowest one, matching the scalar
        // first-invalid scan. Only all-valid sets consult the policy.
        if constexpr (StaticAssoc != 0) {
            const std::uint32_t inv = maskedEqBits<StaticAssoc>(
                tagFlags_.data() + base, lineValid, 0);
            if (inv)
                return firstWay(inv);
        } else {
            for (std::uint32_t w = 0; w < assoc; w++) {
                if (!(tagFlags_[base + w] & lineValid))
                    return w;
            }
        }
        return Policy::template victim<StaticAssoc>(
            tagFlags_.data() + base, stamps_.data() + base, assoc, set,
            rng_, policyState_);
    }
}

template <typename Policy>
inline CacheOutcome
Cache::insert(std::uint64_t tag, std::uint32_t set, std::uint32_t way,
              std::uint64_t status)
{
    if constexpr (std::is_same_v<Policy, PolicyAuto>) {
        return withPolicy(config_.policy, [&](auto pol) {
            return insert<decltype(pol)>(tag, set, way, status);
        });
    } else {
        const std::size_t idx =
            static_cast<std::size_t>(set) * config_.assoc + way;
        const std::uint64_t old = tagFlags_[idx];

        CacheOutcome out;
        out.set = set;
        if (old & lineValid) {
            out.evicted = true;
            out.victimDirty = (old & lineDirty) != 0;
            out.victimUntouchedPrefetch = (old & linePrefetched) != 0;
            out.victimMeta = lineMeta(old);
            out.victimAddr = lineAddr(old);
            evictions_++;
            Policy::onEvict(old, policyState_);
        }
        tagFlags_[idx] = (tag << tagShift) | lineValid | status |
            Policy::insertBits(tag, set, policyState_);
        stamps_[idx] = ++stamp_;
        return out;
    }
}

template <std::uint32_t StaticAssoc, typename Policy>
inline CacheOutcome
Cache::access(Addr addr, MemOp op)
{
    if constexpr (std::is_same_v<Policy, PolicyAuto>) {
        return withPolicy(config_.policy, [&](auto pol) {
            return access<StaticAssoc, decltype(pol)>(addr, op);
        });
    } else {
        accesses_++;
        const std::uint32_t assoc =
            StaticAssoc ? StaticAssoc : config_.assoc;
        const std::uint64_t tag = tagOf(addr);
        const std::uint32_t set =
            static_cast<std::uint32_t>((addr >> lineBits_) & setMask_);
        const std::uint64_t want = (tag << tagShift) | lineValid;
        const std::size_t base = static_cast<std::size_t>(set) * assoc;

        const std::size_t w =
            matchWay<StaticAssoc>(tagFlags_.data() + base, want);
        if (w != noWay) {
            const std::uint64_t tf = tagFlags_[base + w];
            CacheOutcome out;
            out.hit = true;
            out.hitUntouchedPrefetch = (tf & linePrefetched) != 0;
            out.set = set;
            out.meta = lineMeta(tf);
            // The demand touch consumes the prefetched/metadata
            // state; the policy then transforms its own bits (RRPV
            // promotion, outcome/dead marks).
            std::uint64_t cleared =
                tf & ~(linePrefetched | lineMetaMask);
            if (op == MemOp::Store)
                cleared |= lineDirty;
            tagFlags_[base + w] = Policy::onHit(cleared, policyState_);
            Policy::touch(stamps_.data() + base, w, stamp_);
            return out;
        }

        misses_++;
        return insert<Policy>(tag, set,
                              victimWay<StaticAssoc, Policy>(set),
                              op == MemOp::Store ? lineDirty : 0);
    }
}

template <std::uint32_t StaticAssoc, typename Policy>
inline bool
Cache::accessBaseline(Addr addr, MemOp op, BaselineCursor &cur)
{
    if constexpr (std::is_same_v<Policy, PolicyAuto>) {
        return withPolicy(config_.policy, [&](auto pol) {
            return accessBaseline<StaticAssoc, decltype(pol)>(addr, op,
                                                              cur);
        });
    } else {
        cur.accesses++;
        const std::uint32_t assoc =
            StaticAssoc ? StaticAssoc : config_.assoc;
        const std::uint64_t bn = addr >> lineBits_;
        const std::uint64_t want =
            ((bn & tagMask) << tagShift) | lineValid;
        const std::uint32_t set =
            static_cast<std::uint32_t>(bn & setMask_);
        std::uint64_t *tags =
            tagFlags_.data() + static_cast<std::size_t>(set) * assoc;
        std::uint64_t *stamps =
            stamps_.data() + static_cast<std::size_t>(set) * assoc;

        // One fused compare per way: tag + valid, status bits masked.
        const std::size_t hit = matchWay<StaticAssoc>(tags, want);
        if (hit != noWay) {
            if constexpr (Policy::rewritesOnHit) {
                std::uint64_t word = tags[hit];
                if (op == MemOp::Store)
                    word |= lineDirty;
                tags[hit] = Policy::onHit(word, policyState_);
            } else {
                // The policy leaves the word alone: skip the store
                // unless the dirty bit changes (keeps the trimmed
                // kernel's hit path load-only for loads).
                if (op == MemOp::Store)
                    tags[hit] |= lineDirty;
            }
            Policy::touch(stamps, hit, cur.stamp);
            return true;
        }

        cur.misses++;
        std::uint32_t way = assoc;
        if constexpr (StaticAssoc != 0) {
            const std::uint32_t inv =
                maskedEqBits<StaticAssoc>(tags, lineValid, 0);
            if (inv)
                way = firstWay(inv);
        } else {
            for (std::uint32_t w = 0; w < assoc; w++) {
                if (!(tags[w] & lineValid)) {
                    way = w;
                    break;
                }
            }
        }
        if (way == assoc) {
            cur.evictions++; // every way valid: the victim is live
            way = Policy::template victim<StaticAssoc>(
                tags, stamps, assoc, set, rng_, policyState_);
            Policy::onEvict(tags[way], policyState_);
        }
        tags[way] = want | (op == MemOp::Store ? lineDirty : 0) |
            Policy::insertBits(bn & tagMask, set, policyState_);
        stamps[way] = ++cur.stamp;
        return false;
    }
}

// LTC_HOT_END

} // namespace ltc

#endif // LTC_CACHE_CACHE_HH
