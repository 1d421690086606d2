#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "util/bitops.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace ltc
{

Cache::Cache(const CacheConfig &config) : config_(config)
{
    config_.validate();
    lineBits_ = exactLog2(config_.lineBytes);
    setMask_ = config_.numSets() - 1;
    tagFlags_.resize(config_.numLines());
    stamps_.resize(config_.numLines());
    // Weakly-reused initial prediction, per the SHiP paper; the other
    // policies never touch the table, so it stays unallocated.
    if (config_.policy == ReplPolicy::SHiP)
        policyState_.shct.assign(shipShctEntries, 1);
}

CacheOutcome
Cache::fill(Addr addr, Addr predicted_victim, std::uint8_t meta)
{
    const std::uint32_t set = setIndex(addr);
    if (findIndex(addr) != noWay) {
        CacheOutcome out;
        out.hit = true;
        out.set = set;
        return out;
    }
    prefetchFills_++;

    const std::size_t victim = predicted_victim != invalidAddr &&
            setIndex(predicted_victim) == set
        ? findIndex(predicted_victim)
        : noWay;
    const std::uint32_t way = victim != noWay
        ? static_cast<std::uint32_t>(
              victim - static_cast<std::size_t>(set) * config_.assoc)
        : victimWay(set);
    const std::uint64_t status = (meta ? linePrefetched : 0) |
        (static_cast<std::uint64_t>(meta & 0x3) << lineMetaShift);
    return insert(tagOf(addr), set, way, status);
}

std::uint8_t
Cache::takeMeta(Addr addr)
{
    const std::size_t idx = findIndex(addr);
    if (idx == noWay)
        return 0;
    const std::uint8_t meta = lineMeta(tagFlags_[idx]);
    tagFlags_[idx] &= ~lineMetaMask;
    return meta;
}

void
Cache::markEvicted(Addr addr)
{
    const std::uint64_t block = addr >> lineBits_;
    const Addr region = block >> markRegionBits;
    const std::uint64_t bit = std::uint64_t{1}
        << (block & (markRegionBlocks - 1));
    if (std::uint64_t *word = evictMarks_.find(region))
        *word |= bit;
    else
        evictMarks_.insert(region, bit);
}

void
Cache::auditInvariants() const
{
    const std::size_t lines = config_.numLines();
    LTC_CHECK(tagFlags_.size() == lines,
              "tag array holds ", tagFlags_.size(), " words for ",
              lines, " lines");
    LTC_CHECK(stamps_.size() == lines,
              "stamp array holds ", stamps_.size(), " words for ",
              lines, " lines");
    LTC_CHECK(misses_ <= accesses_,
              misses_, " misses out of ", accesses_, " accesses");
    LTC_CHECK(evictions_ <= misses_ + prefetchFills_,
              evictions_, " evictions from ", misses_, " misses + ",
              prefetchFills_, " prefetch fills");

    // Bits the tag-word layout leaves unused below the tag field
    // (none today — the policy bits filled the gap — but the check
    // guards future layout edits), plus the policy bits the
    // configured plugin never sets.
    constexpr std::uint64_t reservedBits =
        ((std::uint64_t{1} << tagShift) - 1) &
        ~(lineValid | lineDirty | linePrefetched | lineMetaMask |
          linePolicyMask);
    std::uint64_t forbidden = reservedBits;
    switch (config_.policy) {
      case ReplPolicy::LRU:
      case ReplPolicy::FIFO:
      case ReplPolicy::Random:
        forbidden |= linePolicyMask; // stamp policies: all bits idle
        break;
      case ReplPolicy::RRIP:
      case ReplPolicy::DRRIP:
        forbidden |= lineAuxBit; // RRPV only
        break;
      case ReplPolicy::SHiP:
        break; // RRPV + outcome bit both live
      case ReplPolicy::DeadBlock:
        forbidden |= lineRrpvMask; // dead mark only
        break;
    }

    // Policy table state matches the configured plugin.
    if (config_.policy == ReplPolicy::SHiP) {
        LTC_CHECK(policyState_.shct.size() == shipShctEntries,
                  "SHiP signature table holds ",
                  policyState_.shct.size(), " of ", shipShctEntries,
                  " counters");
        for (std::size_t i = 0; i < policyState_.shct.size(); i++) {
            LTC_CHECK(policyState_.shct[i] <= 3, "SHiP counter ", i,
                      " holds ", policyState_.shct[i],
                      ", above the 2-bit ceiling");
        }
    } else {
        LTC_CHECK(policyState_.shct.empty(),
                  "SHiP signature table allocated under policy ",
                  replPolicyName(config_.policy));
    }
    LTC_CHECK(policyState_.psel <= 1023, "DRRIP PSEL ",
              policyState_.psel, " above the 10-bit ceiling");
    LTC_CHECK(policyState_.bipCtr <= 31, "BRRIP epsilon counter ",
              policyState_.bipCtr, " above its 1-in-32 period");

    for (std::uint32_t set = 0; set < config_.numSets(); set++) {
        const std::size_t base =
            static_cast<std::size_t>(set) * config_.assoc;
        for (std::uint32_t w = 0; w < config_.assoc; w++) {
            const std::uint64_t tf = tagFlags_[base + w];
            if (!(tf & lineValid)) {
                LTC_CHECK(tf == 0, "set ", set, " way ", w,
                          ": invalid line carries residual bits");
                LTC_CHECK(stamps_[base + w] == 0, "set ", set, " way ",
                          w, ": invalid line carries a stamp");
                continue;
            }
            LTC_CHECK((tf & forbidden) == 0, "set ", set, " way ",
                      w, ": reserved or foreign-policy tag-word "
                      "bits set");
            LTC_CHECK(stamps_[base + w] <= stamp_, "set ", set,
                      " way ", w, ": stamp ", stamps_[base + w],
                      " ahead of global counter ", stamp_);
            LTC_CHECK(setIndex(lineAddr(tf)) == set, "set ", set,
                      " way ", w, ": tag word maps to set ",
                      setIndex(lineAddr(tf)));
            for (std::uint32_t w2 = w + 1; w2 < config_.assoc; w2++) {
                const std::uint64_t other = tagFlags_[base + w2];
                if (other & lineValid) {
                    LTC_CHECK((other >> tagShift) != (tf >> tagShift),
                              "set ", set, ": block resident in ways ",
                              w, " and ", w2);
                }
            }
        }
    }

    evictMarks_.auditInvariants();
    evictMarks_.forEach([&](Addr region, std::uint64_t word) {
        LTC_CHECK(word != 0, "eviction-mark region ", region,
                  " kept with no marks");
        for (std::uint64_t rest = word; rest; rest &= rest - 1) {
            const Addr block =
                ((region << markRegionBits) |
                 static_cast<Addr>(std::countr_zero(rest)))
                << lineBits_;
            LTC_CHECK(findIndex(block) == noWay, "eviction-marked "
                      "block ", block, " is resident");
        }
    });
}

bool
Cache::isUntouchedPrefetch(Addr addr) const
{
    const std::size_t idx = findIndex(addr);
    return idx != noWay && (tagFlags_[idx] & linePrefetched);
}

bool
Cache::setDirty(Addr addr)
{
    const std::size_t idx = findIndex(addr);
    if (idx == noWay)
        return false;
    tagFlags_[idx] |= lineDirty;
    return true;
}

bool
Cache::markDead(Addr addr)
{
    const std::size_t idx = findIndex(addr);
    if (idx == noWay)
        return false;
    tagFlags_[idx] |= lineAuxBit;
    return true;
}

bool
Cache::isDead(Addr addr) const
{
    const std::size_t idx = findIndex(addr);
    return idx != noWay && (tagFlags_[idx] & lineAuxBit);
}

} // namespace ltc
