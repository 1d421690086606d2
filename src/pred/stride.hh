/**
 * @file
 * PC-indexed stride prefetcher (reference prediction table).
 *
 * A sanity baseline subsumed by GHB PC/DC: each PC's miss stream is
 * checked for a constant stride; two consecutive confirmations arm
 * the entry and prefetches of the next `degree` strided blocks are
 * issued into L2.
 */

#ifndef LTC_PRED_STRIDE_HH
#define LTC_PRED_STRIDE_HH

#include <cstdint>
#include <vector>

#include "pred/prefetcher.hh"

namespace ltc
{

/** Stride prefetcher configuration. */
struct StrideConfig
{
    std::uint32_t entries = 256;
    std::uint32_t degree = 2;
    std::uint32_t lineBytes = 64;
};

class StridePrefetcher : public Prefetcher
{
  public:
    explicit StridePrefetcher(const StrideConfig &config);

    void observe(const MemRef &ref, const HierOutcome &out) override;
    std::string name() const override { return "stride"; }
    void exportStats(StatSet &set) const override;

  private:
    struct Entry
    {
        Addr pcTag = invalidAddr;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint8_t confidence = 0;
        bool valid = false;
    };

    StrideConfig config_;
    std::vector<Entry> table_;
    std::uint64_t issued_ = 0;
    std::uint64_t armed_ = 0;
};

} // namespace ltc

#endif // LTC_PRED_STRIDE_HH
