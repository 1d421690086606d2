#include "pred/ghb.hh"

#include "util/bitops.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace ltc
{

Ghb::Ghb(const GhbConfig &config) : config_(config)
{
    ltc_assert(config_.ghbEntries > 1, "GHB needs >= 2 entries");
    ltc_assert(isPowerOf2(config_.ghbEntries),
               "GHB ring size must be a power of two");
    ltc_assert(isPowerOf2(config_.indexEntries),
               "GHB index size must be a power of two");
    ghb_.resize(config_.ghbEntries);
    index_.resize(config_.indexEntries);
}

bool
Ghb::serialLive(std::uint64_t serial) const
{
    // Serial s lives in the buffer until ghbEntries newer insertions
    // overwrite its slot.
    return serial != 0 && serial + config_.ghbEntries >= nextSerial_ &&
        serial < nextSerial_;
}

const Ghb::GhbEntry &
Ghb::insertMiss(Addr pc, Addr block_addr)
{
    const std::uint64_t serial = nextSerial_++;
    GhbEntry &entry = ghb_[serial & (config_.ghbEntries - 1)];

    IndexEntry &idx =
        index_[mix64(pc) & (config_.indexEntries - 1)];

    entry.missAddr = block_addr;
    const bool chained =
        idx.pcTag == pc && serialLive(idx.headSerial);
    entry.prevSerial = chained ? idx.headSerial : 0;

    idx.pcTag = pc;
    idx.headSerial = serial;
    return entry;
}

void
Ghb::observe(const MemRef &ref, const HierOutcome &out)
{
    if (out.l1Hit())
        return;
    misses_++;

    const Addr block =
        ref.addr & ~static_cast<Addr>(config_.lineBytes - 1);
    const GhbEntry *entry = &insertMiss(ref.pc, block);

    // Walk the PC's miss chain newest first: history[0] is the current
    // miss, and deltas[i] = history[i] - history[i+1] is computed on
    // reaching history[i+1]. The most recent delta pair (deltas[0],
    // deltas[1]) is searched for in the older delta stream: each pair
    // (deltas[i], deltas[i+1]), i >= 2, is tested as soon as it
    // exists, so the walk stops at the smallest matching i, the
    // pair's most recent recurrence.
    std::int64_t deltas[maxChain] = {};
    Addr newer = block;
    std::uint32_t walked = 1; // history entries reached
    std::uint32_t match = 0; // none: a match index is >= 2
    while (walked < maxChain && serialLive(entry->prevSerial)) {
        entry = &ghb_[entry->prevSerial & (config_.ghbEntries - 1)];
        deltas[walked - 1] = static_cast<std::int64_t>(newer) -
            static_cast<std::int64_t>(entry->missAddr);
        newer = entry->missAddr;
        walked++;
        if (walked >= 5 && deltas[walked - 3] == deltas[0] &&
            deltas[walked - 2] == deltas[1]) {
            match = walked - 3;
            break;
        }
    }
    if (match == 0)
        return;
    matches_++;

    // Replay the deltas that followed the matched pair (remember:
    // deltas are newest-first, so "followed in time" = lower index).
    // If fewer than `depth` deltas follow the match, the pattern is
    // replayed cyclically with period `match` -- for a constant
    // stride this extends the two follow-on deltas to the full
    // prefetch depth, as PC/DC implementations do.
    Addr target = block;
    std::uint32_t issued = 0;
    std::uint32_t i = match;
    while (issued < config_.depth) {
        if (i == 0)
            i = match;
        i--;
        target += static_cast<Addr>(deltas[i]);
        PrefetchRequest req;
        req.target = target;
        req.intoL1 = false; // install into L2 only
        enqueue(req);
        issued++;
        issued_++;
    }
}

void
Ghb::exportStats(StatSet &set) const
{
    set.set("misses_observed", static_cast<double>(misses_));
    set.set("delta_matches", static_cast<double>(matches_));
    set.set("prefetches_issued", static_cast<double>(issued_));
}

} // namespace ltc
