#include "cpu/ooo_core.hh"

#include <algorithm>

#include "util/check.hh"
#include "util/logging.hh"

namespace ltc
{

OooCore::OooCore(const CoreConfig &config) : config_(config)
{
    ltc_assert(config_.width > 0, "core width must be positive");
    ltc_assert(config_.robSize > 0, "ROB size must be positive");
    ltc_assert(config_.lsqSize > 0, "LSQ size must be positive");
    robRing_.assign(config_.robSize, 0);
    lsqRing_.assign(config_.lsqSize, 0);
}

Cycle
OooCore::finishCycle() const
{
    return lastRetire_ / config_.width + 1;
}

double
OooCore::ipc() const
{
    const Cycle cycles = finishCycle();
    return cycles ? static_cast<double>(instructions_) /
            static_cast<double>(cycles)
                  : 0.0;
}

namespace
{

/**
 * Shared ring audit: entries must be bounded by the newest retire
 * slot and non-decreasing from the head (insertion order), since
 * every retirement slot is strictly later than the one before it.
 */
void
auditRing(const std::vector<std::uint64_t> &ring, std::uint64_t head,
          std::uint64_t size, std::uint64_t last_retire,
          const char *name)
{
    LTC_CHECK(ring.size() == size, name, " ring holds ", ring.size(),
              " slots, configured for ", size);
    LTC_CHECK(head < ring.size(), name, " head ", head,
              " outside ring of ", ring.size());
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < ring.size(); i++) {
        const std::uint64_t slot = ring[(head + i) % ring.size()];
        LTC_CHECK(slot <= last_retire, name, " ring slot ", slot,
                  " ahead of newest retirement ", last_retire);
        LTC_CHECK(slot >= prev, name, " ring out of insertion order (",
                  prev, " then ", slot, ")");
        prev = slot;
    }
}

} // namespace

void
OooCore::auditInvariants() const
{
    auditRing(robRing_, robHead_, config_.robSize, lastRetire_, "ROB");
    auditRing(lsqRing_, lsqHead_, config_.lsqSize, lastRetire_, "LSQ");
    LTC_CHECK(memInstructions_ <= instructions_, memInstructions_,
              " memory instructions out of ", instructions_);
    if (memPending_) {
        LTC_CHECK(pendingIssueSlot_ >= frontier_,
                  "pending memory op issued at slot ",
                  pendingIssueSlot_, " behind frontier ", frontier_);
    }
}

} // namespace ltc
