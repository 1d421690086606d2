/**
 * @file
 * Miss Status Holding Register file.
 *
 * Models the contention the paper calls out ("We extend SimpleScalar
 * to model MSHR contention and queuing accurately"): a miss needs a
 * free MSHR to issue; a miss to a block that is already outstanding
 * merges with the existing entry (and completes with it).
 *
 * The file caches the earliest outstanding completion time so the
 * engines' per-reference retire() tick degenerates to one compare
 * until an entry actually completes — occupancy is then reconciled in
 * event-granular bursts (the batched timing kernel relies on this:
 * skipping no-op retires cannot change the occupancy trajectory,
 * which tests/property_test.cc pins against an eagerly-scanning
 * reference model).
 */

#ifndef LTC_CACHE_MSHR_HH
#define LTC_CACHE_MSHR_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace ltc
{

/** Fixed-capacity file of outstanding misses with completion times. */
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t capacity);

    // LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
    // operator and virtual declarations between these markers
    // (lookup/retire run per reference in the batched timing kernel).

    /**
     * Earliest cycle >= @p now at which a new miss can allocate an
     * entry (i.e. when a register frees up if the file is full).
     */
    Cycle
    allocReadyAt(Cycle now) const
    {
        if (entries_.size() < capacity_)
            return now;
        return std::max(now, earliest_);
    }

    /**
     * Allocate an entry for @p block_addr completing at @p completion.
     * The caller must have consulted allocReadyAt (panics when full).
     */
    void
    allocate(Addr block_addr, Cycle start, Cycle completion)
    {
        // Entries completing at or before the allocation time are
        // free.
        retire(start);
        ltc_assert(entries_.size() < capacity_,
                   "MSHR allocate with full file; consult allocReadyAt");
        entries_.push_back({block_addr, completion});
        present_[maskWord(block_addr)] |= maskBit(block_addr);
        earliest_ = std::min(earliest_, completion);
        peak_ = std::max<std::uint32_t>(
            peak_, static_cast<std::uint32_t>(entries_.size()));
    }

    /**
     * Completion time of an outstanding miss to @p block_addr. The
     * presence filter screens the common new-block case down to two
     * loads and a mask test; only possible matches pay the scan.
     */
    std::optional<Cycle>
    lookup(Addr block_addr) const
    {
        if (!(present_[maskWord(block_addr)] & maskBit(block_addr)))
            return std::nullopt;
        for (const Entry &e : entries_)
            if (e.blockAddr == block_addr)
                return e.completion;
        return std::nullopt;
    }

    /**
     * Release entries whose completion time is <= @p now. One compare
     * in the common no-completion case (see the file comment).
     */
    void
    retire(Cycle now)
    {
        if (now < earliest_)
            return;
        retireSlow(now);
    }

    // LTC_HOT_END

    std::uint32_t outstanding() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }

    /** Number of allocations that merged with an existing entry. */
    std::uint64_t merges() const { return merges_; }
    /** Count one merged access (bookkeeping by the engine). */
    void noteMerge() { merges_++; }

    /** Peak simultaneous occupancy observed. */
    std::uint32_t peakOccupancy() const { return peak_; }

    void clear();

    /**
     * LTC_CHECK every representation invariant: occupancy within
     * capacity, no duplicate outstanding block, the cached
     * earliest-completion equal to the true minimum, and the presence
     * filter a superset of the entry set (a clear bit must prove
     * absence — one missing bit silently drops MSHR merges). Cold
     * path; panics on the first violation.
     */
    void auditInvariants() const;

  private:
    struct Entry
    {
        Addr blockAddr;
        Cycle completion;
    };

    /** Sentinel earliest-completion when the file is empty. */
    static constexpr Cycle noEarliest =
        std::numeric_limits<Cycle>::max();

    /**
     * Presence filter: 256 bits indexed by a hash of the block
     * number. A set bit is a superset of residency (bits are only
     * cleared when retireSlow rebuilds the filter from the surviving
     * entries), so a clear bit proves absence — no false negatives —
     * and lookup() skips the entry scan for almost every new block.
     */
    static std::size_t
    maskWord(Addr block_addr)
    {
        return (hashBlock(block_addr) >> 6) & 0x3;
    }
    static std::uint64_t
    maskBit(Addr block_addr)
    {
        return std::uint64_t{1} << (hashBlock(block_addr) & 63);
    }
    static std::uint64_t
    hashBlock(Addr block_addr)
    {
        // Fibonacci multiplicative hash of the block number (low
        // line-offset bits are zero and would alias otherwise).
        return (block_addr >> 6) * 0x9e3779b97f4a7c15ull >> 56;
    }

    /** The erase scan behind retire(); recomputes earliest_. */
    void retireSlow(Cycle now);

    std::uint32_t capacity_;
    std::vector<Entry> entries_;
    /** Minimum completion over entries_ (noEarliest when empty). */
    Cycle earliest_ = noEarliest;
    /** Presence filter over entries_ (see maskWord/maskBit). */
    std::array<std::uint64_t, 4> present_{};
    std::uint64_t merges_ = 0;
    std::uint32_t peak_ = 0;

    /** Death-test hook: lets the invariant suite corrupt state. */
    friend struct TestPeer;
};

} // namespace ltc

#endif // LTC_CACHE_MSHR_HH
