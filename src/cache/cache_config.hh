/**
 * @file
 * Cache geometry and latency configuration (Table 1 of the paper).
 */

#ifndef LTC_CACHE_CACHE_CONFIG_HH
#define LTC_CACHE_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

#include "util/types.hh"

namespace ltc
{

/**
 * Replacement policy selector for a cache instance. Each enumerator
 * has a compile-time plugin counterpart in cache/repl_policy.hh; the
 * engines devirtualize on it alongside the static associativity.
 */
enum class ReplPolicy
{
    LRU,
    FIFO,
    Random,
    /** SRRIP: static re-reference interval prediction. */
    RRIP,
    /** DRRIP: set-dueling between SRRIP and BRRIP insertion. */
    DRRIP,
    /** SHiP-lite: signature-trained insertion over RRIP. */
    SHiP,
    /** LRU preferring blocks the predictor marked dead. */
    DeadBlock,
};

const char *replPolicyName(ReplPolicy policy);

/** All selectable policies, in enum order (sweep helper). */
inline constexpr ReplPolicy allReplPolicies[] = {
    ReplPolicy::LRU,    ReplPolicy::FIFO,  ReplPolicy::Random,
    ReplPolicy::RRIP,   ReplPolicy::DRRIP, ReplPolicy::SHiP,
    ReplPolicy::DeadBlock,
};

/** Geometry and access latency for one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 64;
    Cycle latency = 2;
    ReplPolicy policy = ReplPolicy::LRU;

    std::uint64_t numLines() const { return sizeBytes / lineBytes; }
    std::uint64_t numSets() const { return numLines() / assoc; }

    /** Panics if the geometry is not a valid power-of-two layout. */
    void validate() const;

    /** 64KB 2-way 64B 2-cycle L1D (Table 1). */
    static CacheConfig l1d();
    /** 1MB 8-way 64B 20-cycle unified L2 (Table 1). */
    static CacheConfig l2();
};

} // namespace ltc

#endif // LTC_CACHE_CACHE_CONFIG_HH
