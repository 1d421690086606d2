/**
 * @file
 * Dead-Block Correlating Prefetcher (Lai & Falsafi, ISCA'01), the
 * on-chip-table baseline of the paper (Section 2).
 *
 * DBCP correlates each last touch of a cache block with the address
 * of the block that replaces it. The correlation table maps a
 * last-touch signature key (PC-trace hash + evicted-tag history, see
 * pred/history_table.hh) to the replacement block address and the
 * predicted-dead victim. On a signature match with saturated
 * confidence, the replacement block is prefetched directly into L1D,
 * replacing the victim.
 *
 * Two table flavours:
 *  - unlimited: an "oracle" used as the coverage upper bound
 *    (Figs. 4 and 8 normalise against it), and
 *  - finite: a set-associative LRU table of the configured capacity
 *    (2MB in the paper's realistic configuration, Table 1).
 */

#ifndef LTC_PRED_DBCP_HH
#define LTC_PRED_DBCP_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pred/history_table.hh"
#include "pred/prefetcher.hh"

namespace ltc
{

/** DBCP configuration. */
struct DbcpConfig
{
    /** Correlation table entries; 0 = unlimited ("oracle"). */
    std::uint64_t tableEntries = 0;

    /** L1D geometry (for the history table and set mapping). */
    std::uint32_t l1Sets = 512;
    std::uint32_t lineBytes = 64;

    /** Bytes per correlation-table entry, for capacity conversions. */
    static constexpr std::uint32_t bytesPerEntry = 8;

    /** Entry count for an on-chip table of @p bytes capacity. */
    static std::uint64_t
    entriesForBytes(std::uint64_t bytes)
    {
        return bytes / bytesPerEntry;
    }
};

class Dbcp : public Prefetcher
{
  public:
    explicit Dbcp(const DbcpConfig &config);

    void observe(const MemRef &ref, const HierOutcome &out) override;
    void onPrefetchEviction(Addr victim_addr,
                            Addr incoming_addr) override;
    std::string name() const override;
    void exportStats(StatSet &set) const override;

    /** Signatures currently stored (distinct keys). */
    std::uint64_t storedSignatures() const;

    const DbcpConfig &config() const { return config_; }

  private:
    struct Payload
    {
        Addr replacement = invalidAddr;
        Addr victim = invalidAddr;
        std::uint8_t confidence = 0;
    };

    /** Finite-table line. */
    struct TableLine
    {
        std::uint64_t key = 0;
        Payload payload;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint32_t setOf(Addr addr) const;
    Addr blockOf(Addr addr) const;

    void record(std::uint64_t key, Addr replacement, Addr victim);
    const Payload *lookup(std::uint64_t key);

    DbcpConfig config_;
    HistoryTable history_;

    // Unlimited table.
    std::unordered_map<std::uint64_t, Payload> oracle_;
    // Finite table (used when tableEntries != 0).
    std::vector<TableLine> table_;
    std::uint64_t tableSets_ = 0;
    std::uint64_t stamp_ = 0;

    // Statistics.
    std::uint64_t recorded_ = 0;
    std::uint64_t reinforced_ = 0;
    std::uint64_t conflicts_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t matches_ = 0;
    std::uint64_t predictions_ = 0;
    std::uint64_t lowConfidence_ = 0;
};

} // namespace ltc

#endif // LTC_PRED_DBCP_HH
