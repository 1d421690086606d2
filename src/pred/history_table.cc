#include "pred/history_table.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ltc
{

HistoryTable::HistoryTable(std::uint32_t num_sets,
                           std::uint32_t line_bytes)
    : entries_(num_sets), lineBytes_(line_bytes)
{
    ltc_assert(num_sets > 0, "history table needs at least one set");
    ltc_assert(isPowerOf2(line_bytes), "line size must be power of two");
}

void
HistoryTable::recordAccess(std::uint32_t set, Addr pc)
{
    ltc_assert(set < entries_.size(), "history set out of range: ", set);
    entries_[set].trace.update(pc);
}

std::uint64_t
HistoryTable::signatureKey(std::uint32_t set) const
{
    ltc_assert(set < entries_.size(), "history set out of range: ", set);
    const Entry &e = entries_[set];
    std::uint64_t key = e.trace.value();
    key = hashCombine(key, e.evicted[0]);
    key = hashCombine(key, e.evicted[1]);
    // Fold the set in so identical traces in different sets do not
    // alias to the same signature.
    key = hashCombine(key, set);
    return key;
}

void
HistoryTable::closeWindow(std::uint32_t set, Addr victim_block)
{
    ltc_assert(set < entries_.size(), "history set out of range: ", set);
    Entry &e = entries_[set];
    e.trace.clear();
    e.evicted[1] = e.evicted[0];
    e.evicted[0] = victim_block & ~static_cast<Addr>(lineBytes_ - 1);
}

std::uint64_t
HistoryTable::storageBits(std::uint32_t tag_bits) const
{
    constexpr std::uint64_t trace_bits = 23; // Section 5.6
    return entries_.size() * (trace_bits + 2ull * tag_bits);
}

} // namespace ltc
