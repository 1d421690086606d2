#include "core/signature_cache.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ltc
{

SignatureCache::SignatureCache(std::uint32_t entries, std::uint32_t assoc)
    : entries_(entries), assoc_(assoc)
{
    ltc_assert(assoc_ > 0, "signature cache needs assoc >= 1");
    ltc_assert(entries_ >= assoc_ && entries_ % assoc_ == 0,
               "signature cache entries must be a multiple of assoc");
    sets_ = entries_ / assoc_;
    ltc_assert(isPowerOf2(sets_),
               "signature cache set count must be a power of two, got ",
               sets_);
    partSets_ = sets_;
    partMask_ = sets_ - 1;
    keys_.assign(entries_, 0);
    fill_.assign(entries_, 0);
    payload_.assign(entries_, SigPayload{});
}

void
SignatureCache::configurePartitions(std::uint32_t parts)
{
    ltc_assert(occupancy() == 0,
               "signature cache partitions must be configured while "
               "the cache is empty");
    if (parts <= 1) {
        partitions_ = 1;
        partSets_ = sets_;
        partBase_ = 0;
        partMask_ = sets_ - 1;
        return;
    }
    // Round the request down to a power of two so slices stay plain
    // base+mask windows, and clamp so every slice keeps at least one
    // set.
    std::uint32_t p = std::uint32_t{1} << floorLog2(parts);
    p = std::min(p, sets_);
    partitions_ = p;
    partSets_ = sets_ / p;
    partBase_ = 0;
    partMask_ = partSets_ - 1;
}

void
SignatureCache::selectTenant(std::uint32_t tenant)
{
    // Tenants beyond the slice count hash onto slices by their low
    // bits (partitions_ is a power of two).
    partBase_ = (tenant & (partitions_ - 1)) * partSets_;
}

void
SignatureCache::invalidateFrame(std::uint32_t frame)
{
    for (std::size_t i = 0; i < payload_.size(); i++) {
        if (fill_[i] != 0 && payload_[i].frame == frame)
            fill_[i] = 0;
    }
}

std::uint32_t
SignatureCache::occupancy() const
{
    std::uint32_t n = 0;
    for (const std::uint64_t f : fill_)
        n += f != 0 ? 1 : 0;
    return n;
}

} // namespace ltc
