/**
 * @file
 * Global History Buffer PC/DC prefetcher (Nesbit & Smith, HPCA'04).
 *
 * The delta-correlating baseline of the paper (subsumes stride
 * prefetching). The GHB is a circular buffer of L1D miss addresses;
 * each entry links to the previous miss by the same PC. On a miss,
 * the PC's chain yields its recent miss-address history; the two most
 * recent deltas are searched for in the older delta stream (delta
 * correlation) and, on a match, the deltas that followed the match
 * are replayed from the current miss address to generate prefetches.
 *
 * Configuration follows the paper: 256-entry index table, 256-entry
 * GHB, prefetch depth 4. GHB prefetches install into L2 only — unlike
 * last-touch prefetchers it has no dead-block information, so filling
 * L1D directly would pollute it (Section 5.7).
 */

#ifndef LTC_PRED_GHB_HH
#define LTC_PRED_GHB_HH

#include <cstdint>
#include <vector>

#include "pred/prefetcher.hh"

namespace ltc
{

/** GHB PC/DC configuration. */
struct GhbConfig
{
    /** Index-table entries; a power of two. */
    std::uint32_t indexEntries = 256;
    /** GHB ring entries; a power of two, at least 2. */
    std::uint32_t ghbEntries = 256;
    /** Prefetch depth after a delta-pair match. */
    std::uint32_t depth = 4;
    std::uint32_t lineBytes = 64;
};

class Ghb : public Prefetcher
{
  public:
    /** Maximum chain length walked per miss (bounds the delta array). */
    static constexpr std::uint32_t maxChain = 64;

    explicit Ghb(const GhbConfig &config);

    void observe(const MemRef &ref, const HierOutcome &out) override;
    std::string name() const override { return "ghb-pc/dc"; }
    void exportStats(StatSet &set) const override;

  private:
    struct GhbEntry
    {
        Addr missAddr = 0;
        /**
         * Serial number of the previous miss by the same PC; 0 (never
         * a serial) when the chain ends here.
         */
        std::uint64_t prevSerial = 0;
    };

    struct IndexEntry
    {
        Addr pcTag = invalidAddr;
        /** Newest miss of pcTag's chain; 0 while the entry is unused. */
        std::uint64_t headSerial = 0;
    };

    bool serialLive(std::uint64_t serial) const;
    /** Append a miss to the ring and head its PC's chain with it. */
    const GhbEntry &insertMiss(Addr pc, Addr block_addr);

    GhbConfig config_;
    std::vector<GhbEntry> ghb_;
    std::vector<IndexEntry> index_;
    /** Serial number of the next GHB insertion (1-based). */
    std::uint64_t nextSerial_ = 1;

    std::uint64_t misses_ = 0;
    std::uint64_t matches_ = 0;
    std::uint64_t issued_ = 0;
};

} // namespace ltc

#endif // LTC_PRED_GHB_HH
