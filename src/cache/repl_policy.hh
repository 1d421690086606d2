/**
 * @file
 * Compile-time replacement-policy plugins for the packed-tag cache.
 *
 * Each policy is a stateless struct of static hooks the cache's hot
 * path calls at the three replacement decision points — demand hit,
 * victim selection, line insertion — plus an eviction hook for
 * policies that train on outcomes. The hooks operate directly on one
 * set's packed tag words and replacement stamps (see cache/cache.hh
 * for the layout), so a kernel instantiated with a concrete policy
 * compiles to straight-line code with no per-access dispatch: the
 * engines' batched loops carry a Policy template parameter alongside
 * the static associativity and stay fully devirtualized.
 *
 * Per-line policy state lives in the spare bits of the packed 8-byte
 * tag word (linePolicyMask, three bits between the engine metadata
 * and the tag field):
 *
 *  - bits 5-6  RRPV (re-reference prediction value) for the RRIP
 *              family [Jaleel et al., ISCA 2010],
 *  - bit 7     auxiliary flag: SHiP-lite's "reused" outcome bit, or
 *              the dead-block policy's dead mark.
 *
 * LRU and FIFO keep using the 8-byte stamp array (last-use stamp
 * updated on hit vs fill stamp written at insert); Random draws from
 * the cache's RNG only on all-valid conflict misses, preserving the
 * draw order the equivalence suites pin. Policies with table state
 * (DRRIP's PSEL, SHiP's signature counter table) keep it in the
 * cache-owned PolicyState, off the per-line format.
 */

#ifndef LTC_CACHE_REPL_POLICY_HH
#define LTC_CACHE_REPL_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/set_scan.hh"
#include "util/random.hh"

namespace ltc
{

// Packed tag-word layout, shared by Cache and the policy plugins:
// (block number & tagMask) << tagShift, OR'd with the status bits
// below; 0 = invalid. Block numbers use the top 56 bits, which is
// lossless for every simulated footprint (aliases only past 2^56
// blocks). See cache/cache.hh for how the words are stored.
constexpr std::uint64_t lineValid = 0x01;
constexpr std::uint64_t lineDirty = 0x02;
constexpr std::uint64_t linePrefetched = 0x04;
constexpr unsigned lineMetaShift = 3; //!< 2 LineMeta* bits
constexpr std::uint64_t lineMetaMask = 0x3u << lineMetaShift;
/** Replacement-policy bits: 2-bit RRPV plus the auxiliary flag. */
constexpr unsigned linePolicyShift = 5;
constexpr std::uint64_t linePolicyMask =
    std::uint64_t{0x7} << linePolicyShift;
/** The RRIP family's 2-bit re-reference prediction value. */
constexpr std::uint64_t lineRrpvMask =
    std::uint64_t{0x3} << linePolicyShift;
constexpr std::uint64_t lineRrpvStep = std::uint64_t{1}
    << linePolicyShift;
/** RRPV 3: predicted distant re-reference (the eviction candidate). */
constexpr std::uint64_t lineRrpvDistant = std::uint64_t{3}
    << linePolicyShift;
/** RRPV 2: predicted long re-reference (SRRIP's insertion value). */
constexpr std::uint64_t lineRrpvLong = std::uint64_t{2}
    << linePolicyShift;
/** SHiP-lite's reused-outcome bit / the dead-block policy's mark. */
constexpr std::uint64_t lineAuxBit = std::uint64_t{1}
    << (linePolicyShift + 2);
constexpr unsigned tagShift = 8;
constexpr std::uint64_t tagMask =
    (std::uint64_t{1} << (64 - tagShift)) - 1;
/** Bits compared by the lookup scans: tag + valid, status masked. */
constexpr std::uint64_t tagSelect =
    ~(lineDirty | linePrefetched | lineMetaMask | linePolicyMask);

/**
 * Cache-owned policy table state (one instance per cache). Only the
 * policies that need it read it; the plain stamp policies never touch
 * it, so it costs nothing on their paths.
 */
struct PolicyState
{
    /** DRRIP set-dueling selector (10-bit saturating, MSB decides). */
    std::uint32_t psel = 512;
    /** BRRIP epsilon counter: one long-re-reference insert in 32. */
    std::uint32_t bipCtr = 0;
    /**
     * SHiP-lite signature history counter table (2-bit counters,
     * shipShctEntries entries, initialised weakly-reused). Allocated
     * by the cache constructor only under ReplPolicy::SHiP.
     */
    std::vector<std::uint8_t> shct;
};

/** SHiP-lite signature table size (16K 2-bit counters = 16KB). */
constexpr std::uint32_t shipShctEntries = 16384;

/**
 * SHiP-lite signature of a packed block tag. Recomputed from the tag
 * at insert, hit and eviction time instead of being stored per line
 * (the paper's 14-bit per-line signature field does not fit the
 * 3-bit policy budget); the multiplicative hash keeps neighbouring
 * blocks from training one counter.
 */
inline std::uint32_t
shipSignature(std::uint64_t tag)
{
    return static_cast<std::uint32_t>(
        (tag * 0x9e3779b97f4a7c15ull) >> 50);
}

// ------------------------------------------------------ hot path
//
// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

/** Way with the minimum replacement stamp (lowest way wins ties). */
inline std::uint32_t
minStampWay(const std::uint64_t *stamps, std::uint32_t assoc)
{
    // Strict compare keeps the lowest way among stamp ties, and the
    // fixed trip count lets the compiler unroll (the scan only runs
    // on conflict misses, so it stays scalar rather than SIMD).
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < assoc; w++) {
        if (stamps[w] < stamps[victim])
            victim = w;
    }
    return victim;
}

/**
 * RRIP victim scan: first way at distant RRPV, aging every line one
 * step until one reaches it. All ways are valid here (the cache
 * handles invalid ways before consulting the policy) and no way is
 * at RRPV 3 when the aging loop runs, so the +step never carries out
 * of the RRPV field. Terminates in at most three aging rounds.
 */
template <std::uint32_t StaticAssoc>
inline std::uint32_t
rripVictim(std::uint64_t *tags, std::uint32_t assoc)
{
    for (;;) {
        if constexpr (StaticAssoc != 0) {
            const std::uint32_t m = maskedEqBits<StaticAssoc>(
                tags, lineRrpvMask, lineRrpvDistant);
            if (m)
                return firstWay(m);
        } else {
            for (std::uint32_t w = 0; w < assoc; w++) {
                if ((tags[w] & lineRrpvMask) == lineRrpvDistant)
                    return w;
            }
        }
        for (std::uint32_t w = 0; w < assoc; w++)
            tags[w] += lineRrpvStep;
    }
}

/**
 * The plugin interface, by example. Hooks:
 *
 *  - onHit(word, state): transform the hitting line's tag word (the
 *    cache has already cleared the consumed prefetched/metadata bits
 *    and applied the dirty bit). rewritesOnHit tells the trimmed
 *    baseline kernel whether the word write can be skipped when the
 *    hit changes nothing else.
 *  - touch(stamps, way, stamp): update the replacement stamp on a
 *    demand hit (LRU's last-use refresh; FIFO leaves fill order).
 *  - victim<StaticAssoc>(tags, stamps, assoc, set, rng, state): pick
 *    the way to evict from an all-valid set; may mutate tag words
 *    (RRIP aging) and policy state.
 *  - insertBits(tag, set, state): policy bits OR'd into the freshly
 *    inserted line's tag word; may update policy state (DRRIP's PSEL
 *    training happens here, since every miss inserts).
 *  - onEvict(old_word, state): observe the evicted line's final tag
 *    word (SHiP trains its signature counters here).
 *
 * Every policy leaves the insert-time stamp write (++stamp) to the
 * cache, so the stamp invariants audited by Cache::auditInvariants
 * hold for all plugins.
 */
struct PolicyLRU
{
    static constexpr ReplPolicy id = ReplPolicy::LRU;
    static constexpr bool rewritesOnHit = false;

    static std::uint64_t
    onHit(std::uint64_t word, PolicyState &)
    {
        return word;
    }

    static void
    touch(std::uint64_t *stamps, std::size_t way, std::uint64_t &stamp)
    {
        stamps[way] = ++stamp;
    }

    template <std::uint32_t StaticAssoc>
    static std::uint32_t
    victim(std::uint64_t *, const std::uint64_t *stamps,
           std::uint32_t assoc, std::uint32_t, Rng &, PolicyState &)
    {
        return minStampWay(stamps, assoc);
    }

    static std::uint64_t
    insertBits(std::uint64_t, std::uint32_t, PolicyState &)
    {
        return 0;
    }

    static void onEvict(std::uint64_t, PolicyState &) {}
};

/** FIFO: insert-time stamps only; hits do not refresh. */
struct PolicyFIFO
{
    static constexpr ReplPolicy id = ReplPolicy::FIFO;
    static constexpr bool rewritesOnHit = false;

    static std::uint64_t
    onHit(std::uint64_t word, PolicyState &)
    {
        return word;
    }

    static void touch(std::uint64_t *, std::size_t, std::uint64_t &) {}

    template <std::uint32_t StaticAssoc>
    static std::uint32_t
    victim(std::uint64_t *, const std::uint64_t *stamps,
           std::uint32_t assoc, std::uint32_t, Rng &, PolicyState &)
    {
        return minStampWay(stamps, assoc);
    }

    static std::uint64_t
    insertBits(std::uint64_t, std::uint32_t, PolicyState &)
    {
        return 0;
    }

    static void onEvict(std::uint64_t, PolicyState &) {}
};

/**
 * Random: the cache's RNG is drawn exactly once per all-valid
 * conflict miss, in access order — the engine equivalence suites pin
 * the scalar and batched draw streams against each other.
 */
struct PolicyRandom
{
    static constexpr ReplPolicy id = ReplPolicy::Random;
    static constexpr bool rewritesOnHit = false;

    static std::uint64_t
    onHit(std::uint64_t word, PolicyState &)
    {
        return word;
    }

    static void touch(std::uint64_t *, std::size_t, std::uint64_t &) {}

    template <std::uint32_t StaticAssoc>
    static std::uint32_t
    victim(std::uint64_t *, const std::uint64_t *, std::uint32_t assoc,
           std::uint32_t, Rng &rng, PolicyState &)
    {
        return static_cast<std::uint32_t>(rng.below(assoc));
    }

    static std::uint64_t
    insertBits(std::uint64_t, std::uint32_t, PolicyState &)
    {
        return 0;
    }

    static void onEvict(std::uint64_t, PolicyState &) {}
};

/** SRRIP: insert long (RRPV 2), promote to 0 on hit, evict RRPV 3. */
struct PolicyRRIP
{
    static constexpr ReplPolicy id = ReplPolicy::RRIP;
    static constexpr bool rewritesOnHit = true;

    static std::uint64_t
    onHit(std::uint64_t word, PolicyState &)
    {
        return word & ~lineRrpvMask; // near-immediate re-reference
    }

    static void touch(std::uint64_t *, std::size_t, std::uint64_t &) {}

    template <std::uint32_t StaticAssoc>
    static std::uint32_t
    victim(std::uint64_t *tags, const std::uint64_t *,
           std::uint32_t assoc, std::uint32_t, Rng &, PolicyState &)
    {
        return rripVictim<StaticAssoc>(tags, assoc);
    }

    static std::uint64_t
    insertBits(std::uint64_t, std::uint32_t, PolicyState &)
    {
        return lineRrpvLong;
    }

    static void onEvict(std::uint64_t, PolicyState &) {}
};

/** BRRIP insertion: distant, with a 1-in-32 long-re-reference mix. */
inline std::uint64_t
brripInsert(PolicyState &ps)
{
    ps.bipCtr = (ps.bipCtr + 1) & 31;
    return ps.bipCtr == 0 ? lineRrpvLong : lineRrpvDistant;
}

/**
 * DRRIP: set-dueling between SRRIP and BRRIP insertion. Two leader
 * sets per 64 (set & 63 == 0 duels for SRRIP, == 1 for BRRIP) train
 * the 10-bit PSEL on their misses; follower sets use the winner.
 */
struct PolicyDRRIP
{
    static constexpr ReplPolicy id = ReplPolicy::DRRIP;
    static constexpr bool rewritesOnHit = true;

    static std::uint64_t
    onHit(std::uint64_t word, PolicyState &)
    {
        return word & ~lineRrpvMask;
    }

    static void touch(std::uint64_t *, std::size_t, std::uint64_t &) {}

    template <std::uint32_t StaticAssoc>
    static std::uint32_t
    victim(std::uint64_t *tags, const std::uint64_t *,
           std::uint32_t assoc, std::uint32_t, Rng &, PolicyState &)
    {
        return rripVictim<StaticAssoc>(tags, assoc);
    }

    static std::uint64_t
    insertBits(std::uint64_t, std::uint32_t set, PolicyState &ps)
    {
        const std::uint32_t duel = set & 63;
        if (duel == 0) { // SRRIP leader: its misses count against it
            if (ps.psel < 1023)
                ps.psel++;
            return lineRrpvLong;
        }
        if (duel == 1) { // BRRIP leader
            if (ps.psel > 0)
                ps.psel--;
            return brripInsert(ps);
        }
        return ps.psel >= 512 ? brripInsert(ps) : lineRrpvLong;
    }

    static void onEvict(std::uint64_t, PolicyState &) {}
};

/**
 * SHiP-lite: a signature history counter table predicts, per insert,
 * whether the line will be reused. Lines whose signature counter is
 * zero insert at distant RRPV (streaming data self-evicts); others
 * insert like SRRIP. The per-line outcome bit (lineAuxBit) records
 * the first demand reuse; eviction trains the table up or down.
 */
struct PolicySHiP
{
    static constexpr ReplPolicy id = ReplPolicy::SHiP;
    static constexpr bool rewritesOnHit = true;

    static std::uint64_t
    onHit(std::uint64_t word, PolicyState &ps)
    {
        if (!(word & lineAuxBit)) { // first demand reuse
            std::uint8_t &c = ps.shct[shipSignature(word >> tagShift)];
            if (c < 3)
                c++;
        }
        return (word & ~lineRrpvMask) | lineAuxBit;
    }

    static void touch(std::uint64_t *, std::size_t, std::uint64_t &) {}

    template <std::uint32_t StaticAssoc>
    static std::uint32_t
    victim(std::uint64_t *tags, const std::uint64_t *,
           std::uint32_t assoc, std::uint32_t, Rng &, PolicyState &)
    {
        return rripVictim<StaticAssoc>(tags, assoc);
    }

    static std::uint64_t
    insertBits(std::uint64_t tag, std::uint32_t, PolicyState &ps)
    {
        return ps.shct[shipSignature(tag)] == 0 ? lineRrpvDistant
                                                : lineRrpvLong;
    }

    static void
    onEvict(std::uint64_t old_word, PolicyState &ps)
    {
        if (!(old_word & lineAuxBit)) { // died without a reuse
            std::uint8_t &c =
                ps.shct[shipSignature(old_word >> tagShift)];
            if (c > 0)
                c--;
        }
    }
};

/**
 * Dead-block-aware replacement: LRU whose victim choice prefers
 * blocks an external oracle marked dead (Cache::markDead — the
 * hierarchy feeds it LT-cords' last-touch victim predictions, so the
 * paper's mechanism drives replacement, not just prefetch). A demand
 * touch clears the mark: the prediction was wrong, the block lives.
 */
struct PolicyDeadBlock
{
    static constexpr ReplPolicy id = ReplPolicy::DeadBlock;
    static constexpr bool rewritesOnHit = true;

    static std::uint64_t
    onHit(std::uint64_t word, PolicyState &)
    {
        return word & ~lineAuxBit;
    }

    static void
    touch(std::uint64_t *stamps, std::size_t way, std::uint64_t &stamp)
    {
        stamps[way] = ++stamp;
    }

    template <std::uint32_t StaticAssoc>
    static std::uint32_t
    victim(std::uint64_t *tags, const std::uint64_t *stamps,
           std::uint32_t assoc, std::uint32_t, Rng &, PolicyState &)
    {
        // Prefer a predicted-dead way (the lowest, for determinism);
        // fall back to LRU when no prediction covers the set.
        if constexpr (StaticAssoc != 0) {
            const std::uint32_t dead = maskedEqBits<StaticAssoc>(
                tags, lineAuxBit, lineAuxBit);
            if (dead)
                return firstWay(dead);
        } else {
            for (std::uint32_t w = 0; w < assoc; w++) {
                if (tags[w] & lineAuxBit)
                    return w;
            }
        }
        return minStampWay(stamps, assoc);
    }

    static std::uint64_t
    insertBits(std::uint64_t, std::uint32_t, PolicyState &)
    {
        return 0;
    }

    static void onEvict(std::uint64_t, PolicyState &) {}
};

// LTC_HOT_END

/**
 * Runtime-dispatch pseudo-policy: cache entry points instantiated
 * with PolicyAuto switch on the configured policy and tail-call the
 * concrete instantiation. The scalar paths use it so every call site
 * stays source-compatible, and scalar and batched runs share one
 * policy implementation by construction.
 */
struct PolicyAuto
{
};

/** Invoke @p f with the concrete policy tag for @p p. */
template <typename F>
auto
withPolicy(ReplPolicy p, F &&f)
{
    switch (p) {
      case ReplPolicy::LRU:
        return f(PolicyLRU{});
      case ReplPolicy::FIFO:
        return f(PolicyFIFO{});
      case ReplPolicy::Random:
        return f(PolicyRandom{});
      case ReplPolicy::RRIP:
        return f(PolicyRRIP{});
      case ReplPolicy::DRRIP:
        return f(PolicyDRRIP{});
      case ReplPolicy::SHiP:
        return f(PolicySHiP{});
      case ReplPolicy::DeadBlock:
        return f(PolicyDeadBlock{});
    }
    return f(PolicyLRU{}); // unreachable: validate() rejects others
}

/**
 * The engines' static-policy dispatch: invoke @p f with the concrete
 * policy tag shared by both cache levels, or PolicyAuto (per-access
 * runtime dispatch) for mixed-policy hierarchies. Composes with
 * dispatchByAssociativity (cache/hierarchy.hh) so the batched
 * kernels devirtualize the policy alongside the way scans.
 */
template <typename F>
auto
dispatchReplPolicy(ReplPolicy l1_policy, ReplPolicy l2_policy, F &&f)
{
    if (l1_policy == l2_policy)
        return withPolicy(l1_policy, f);
    return std::forward<F>(f)(PolicyAuto{});
}

} // namespace ltc

#endif // LTC_CACHE_REPL_POLICY_HH
