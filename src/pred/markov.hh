/**
 * @file
 * Markov prefetcher (Joseph & Grunwald, ISCA'97), reference [11] of
 * the paper — the classic address-correlating design that DBCP and
 * LT-cords descend from.
 *
 * A finite table maps each miss block address to the block addresses
 * that followed it in the miss stream (first-order Markov chain with
 * a small successor list, most-recently-confirmed first). On a miss,
 * the current block's successors are prefetched into L2.
 *
 * Included as an extra baseline: it correlates miss->miss (one step
 * of lookahead, no last-touch timeliness) and its table faces the
 * same footprint-proportional storage problem as DBCP, which is what
 * motivates LT-cords' off-chip sequence storage.
 */

#ifndef LTC_PRED_MARKOV_HH
#define LTC_PRED_MARKOV_HH

#include <cstdint>
#include <vector>

#include "pred/prefetcher.hh"

namespace ltc
{

/** Markov prefetcher configuration. */
struct MarkovConfig
{
    /** Table entries (miss addresses tracked); power of two. */
    std::uint32_t entries = 64 * 1024;
    /** Successors kept per entry. */
    std::uint32_t ways = 2;
    /** Successors prefetched on a hit. */
    std::uint32_t degree = 2;
    std::uint32_t lineBytes = 64;
};

class MarkovPrefetcher : public Prefetcher
{
  public:
    explicit MarkovPrefetcher(const MarkovConfig &config);

    void observe(const MemRef &ref, const HierOutcome &out) override;
    std::string name() const override { return "markov"; }
    void exportStats(StatSet &set) const override;

    /** On-chip bytes at ~8B per (tag, successor) pair. */
    std::uint64_t
    storageBytes() const
    {
        return static_cast<std::uint64_t>(config_.entries) *
            config_.ways * 8;
    }

  private:
    struct Entry
    {
        Addr tag = invalidAddr;
        /** Successor blocks, most recently confirmed first. */
        std::vector<Addr> successors;
        bool valid = false;
    };

    Entry &entryFor(Addr block);

    MarkovConfig config_;
    std::vector<Entry> table_;
    Addr lastMissBlock_ = invalidAddr;

    std::uint64_t misses_ = 0;
    std::uint64_t updates_ = 0;
    std::uint64_t issued_ = 0;
};

} // namespace ltc

#endif // LTC_PRED_MARKOV_HH
