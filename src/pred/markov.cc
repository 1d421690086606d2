#include "pred/markov.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace ltc
{

MarkovPrefetcher::MarkovPrefetcher(const MarkovConfig &config)
    : config_(config)
{
    ltc_assert(isPowerOf2(config_.entries),
               "Markov table size must be a power of two");
    ltc_assert(config_.ways > 0, "Markov needs >= 1 successor way");
    table_.resize(config_.entries);
}

MarkovPrefetcher::Entry &
MarkovPrefetcher::entryFor(Addr block)
{
    return table_[mix64(block) & (config_.entries - 1)];
}

void
MarkovPrefetcher::observe(const MemRef &ref, const HierOutcome &out)
{
    if (out.l1Hit())
        return;
    misses_++;

    const Addr block =
        ref.addr & ~static_cast<Addr>(config_.lineBytes - 1);

    // Learn: the previous miss's entry gains this block as its most
    // recent successor.
    if (lastMissBlock_ != invalidAddr && lastMissBlock_ != block) {
        Entry &prev = entryFor(lastMissBlock_);
        if (!prev.valid || prev.tag != lastMissBlock_) {
            prev.valid = true;
            prev.tag = lastMissBlock_;
            prev.successors.clear();
        }
        auto it = std::find(prev.successors.begin(),
                            prev.successors.end(), block);
        if (it != prev.successors.end())
            prev.successors.erase(it);
        prev.successors.insert(prev.successors.begin(), block);
        if (prev.successors.size() > config_.ways)
            prev.successors.pop_back();
        updates_++;
    }
    lastMissBlock_ = block;

    // Predict: prefetch this block's known successors into L2.
    const Entry &cur = entryFor(block);
    if (cur.valid && cur.tag == block) {
        std::uint32_t issued = 0;
        for (Addr successor : cur.successors) {
            if (issued >= config_.degree)
                break;
            PrefetchRequest req;
            req.target = successor;
            req.intoL1 = false;
            enqueue(req);
            issued++;
            issued_++;
        }
    }
}

void
MarkovPrefetcher::exportStats(StatSet &set) const
{
    set.set("misses_observed", static_cast<double>(misses_));
    set.set("updates", static_cast<double>(updates_));
    set.set("prefetches_issued", static_cast<double>(issued_));
    set.set("storage_bytes", static_cast<double>(storageBytes()));
}

} // namespace ltc
