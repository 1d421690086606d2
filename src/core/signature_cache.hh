/**
 * @file
 * On-chip signature cache (Sections 3.2, 4.3 of the paper).
 *
 * A small set-associative table holding the sliding windows of all
 * active signature sequences. Entries are replaced in FIFO order
 * (Section 4.3). Each entry carries, besides the prediction payload,
 * a pointer (frame, offset) to its exact location in off-chip
 * sequence storage, used to advance the owning fragment's sliding
 * window and to write confidence updates back (Section 4.4).
 *
 * Layout is structure-of-arrays: the signature keys, the FIFO stamps
 * and the prediction payloads live in three parallel arrays. The
 * per-reference lookup scans only the key array — a 2-way set is one
 * 16-byte load — and touches a payload solely on a hit; the AoS
 * layout it replaces dragged the full ~40-byte entry through the
 * cache on every probe of the default 32K-entry configuration. A
 * FIFO stamp of 0 means the way is empty (live stamps start at 1),
 * which also makes empty ways naturally win the oldest-stamp victim
 * scan.
 */

#ifndef LTC_CORE_SIGNATURE_CACHE_HH
#define LTC_CORE_SIGNATURE_CACHE_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace ltc
{

/** One signature to install in the on-chip cache (insert()). */
struct SigCacheEntry
{
    /** Last-touch signature this entry matches. */
    std::uint64_t key = 0;
    /** Predicted replacement block to prefetch. */
    Addr replacement = invalidAddr;
    /** Block whose last touch this signature identifies. */
    Addr victim = invalidAddr;
    /** 2-bit prediction confidence. */
    std::uint8_t confidence = 0;
    /** Pointer into off-chip storage: frame index. */
    std::uint32_t frame = 0;
    /** Pointer into off-chip storage: offset within the fragment. */
    std::uint32_t offset = 0;
};

/** Prediction payload of a resident signature (lookup()). */
struct SigPayload
{
    /** Predicted replacement block to prefetch. */
    Addr replacement = invalidAddr;
    /** Block whose last touch this signature identifies. */
    Addr victim = invalidAddr;
    /** Pointer into off-chip storage: frame index. */
    std::uint32_t frame = 0;
    /** Pointer into off-chip storage: offset within the fragment. */
    std::uint32_t offset = 0;
    /** 2-bit prediction confidence. */
    std::uint8_t confidence = 0;
};

/** Set-associative FIFO cache of active sliding windows. */
class SignatureCache
{
  public:
    /**
     * @param entries Total entry count (power of two).
     * @param assoc   Associativity (divides entries).
     */
    SignatureCache(std::uint32_t entries, std::uint32_t assoc);

    /**
     * Insert a signature; evicts the oldest (FIFO) entry of the set
     * if full. Re-inserting an existing key refreshes its payload but
     * keeps its FIFO stamp. Defined inline below (streaming installs
     * ride the observe path).
     */
    void insert(const SigCacheEntry &entry);

    /**
     * Payload of the entry for @p key; nullptr when absent. Inline:
     * probed once per L1 reference in the LT-cords observe path.
     */
    const SigPayload *lookup(std::uint64_t key);

    /**
     * Partition the set-index space into @p parts equal slices for
     * multi-tenant isolation (Section 5.5 scaled out): selectTenant()
     * then confines every lookup and insert to one slice, so tenants
     * cannot evict each other's windows. @p parts is clamped to a
     * power of two no larger than the set count; 0 or 1 selects
     * shared mode, whose set mapping is bit-identical to an
     * unpartitioned cache (base 0, full set mask). Callable only
     * while the cache is empty (construction-time configuration).
     */
    void configurePartitions(std::uint32_t parts);

    /**
     * Route subsequent lookups and inserts to the slice of @p tenant
     * (tenants hash onto slices by their low bits when there are more
     * tenants than slices). No-op layout in shared mode. Cold path:
     * engines call this once per scheduling quantum, never per
     * reference.
     */
    void selectTenant(std::uint32_t tenant);

    /** Invalidate all entries pointing into @p frame (re-recording). */
    void invalidateFrame(std::uint32_t frame);

    /** Total entry capacity. */
    std::uint32_t entries() const { return entries_; }
    /** Associativity. */
    std::uint32_t assoc() const { return assoc_; }
    /** Number of sets (entries / assoc). */
    std::uint32_t numSets() const { return sets_; }

    /** Entries displaced by FIFO replacement. */
    std::uint64_t fifoEvictions() const { return fifoEvictions_; }
    /** Lifetime lookup count. */
    std::uint64_t lookups() const { return lookups_; }
    /** Lookups that found a valid entry. */
    std::uint64_t hits() const { return hits_; }

    /** Currently valid entries (O(capacity); for stats/tests). */
    std::uint32_t occupancy() const;

    /**
     * On-chip bytes: 42 bits per entry (15b address tag + 2b
     * confidence + 25b off-chip self-pointer, Section 5.6).
     */
    std::uint64_t
    storageBytes() const
    {
        return static_cast<std::uint64_t>(entries_) * 42 / 8;
    }

  private:
    std::uint32_t setOf(std::uint64_t key) const;

    std::uint32_t entries_;
    std::uint32_t assoc_;
    std::uint32_t sets_;
    /**
     * Tenant partitioning state (configurePartitions/selectTenant).
     * Shared mode keeps partBase_ = 0 and partMask_ = sets_ - 1, so
     * setOf() computes exactly the unpartitioned index; partitioned
     * mode narrows the mask to one slice and offsets it by the
     * selected tenant's slice base.
     */
    std::uint32_t partitions_ = 1;
    std::uint32_t partSets_ = 0;  //!< sets per slice (sets_ if shared)
    std::uint32_t partBase_ = 0;  //!< first set of the selected slice
    std::uint32_t partMask_ = 0;  //!< set-index mask within the slice
    // Parallel arrays, indexed set * assoc + way (see file comment).
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> fill_; //!< FIFO stamp; 0 = empty way
    std::vector<SigPayload> payload_;
    std::uint64_t stamp_ = 0;

    std::uint64_t fifoEvictions_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
};

// ------------------------------------------------------ hot path
//
// lookup() runs once per L1 reference and insert() once per streamed
// signature inside the LT-cords observe path; both are defined inline
// so that path crosses no call boundary for them.
//
// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

inline std::uint32_t
SignatureCache::setOf(std::uint64_t key) const
{
    // Indexed by the low-order bits of the signature (Section 5.6),
    // confined to the selected tenant's slice when partitioned. In
    // shared mode partBase_ is 0 and partMask_ covers every set, so
    // this is exactly `key & (sets_ - 1)` — bit-identical to the
    // unpartitioned cache.
    return partBase_ + static_cast<std::uint32_t>(key & partMask_);
}

inline const SigPayload *
SignatureCache::lookup(std::uint64_t key)
{
    lookups_++;
    const std::size_t base =
        static_cast<std::size_t>(setOf(key)) * assoc_;
    const std::uint64_t *keys = keys_.data() + base;
    for (std::uint32_t w = 0; w < assoc_; w++) {
        if (keys[w] == key && fill_[base + w] != 0) {
            hits_++;
            return &payload_[base + w];
        }
    }
    return nullptr;
}

inline void
SignatureCache::insert(const SigCacheEntry &entry)
{
    const std::size_t base =
        static_cast<std::size_t>(setOf(entry.key)) * assoc_;

    // Refresh an existing copy of the same signature in place,
    // keeping its FIFO stamp; otherwise take the oldest way (empty
    // ways carry stamp 0, so they naturally win the scan, lowest way
    // first on ties).
    std::uint32_t way = assoc_;
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < assoc_; w++) {
        if (keys_[base + w] == entry.key && fill_[base + w] != 0) {
            way = w;
            break;
        }
        if (fill_[base + w] < fill_[base + victim])
            victim = w;
    }
    if (way == assoc_) {
        way = victim;
        if (fill_[base + way] != 0)
            fifoEvictions_++;
        fill_[base + way] = ++stamp_;
    }
    keys_[base + way] = entry.key;
    SigPayload &p = payload_[base + way];
    p.replacement = entry.replacement;
    p.victim = entry.victim;
    p.frame = entry.frame;
    p.offset = entry.offset;
    p.confidence = entry.confidence;
}

// LTC_HOT_END

} // namespace ltc

#endif // LTC_CORE_SIGNATURE_CACHE_HH
