#include "analysis/deadtime.hh"

#include "util/logging.hh"

namespace ltc
{

DeadTimeAnalysis::DeadTimeAnalysis(const CacheConfig &l1d_config,
                                   double cycles_per_access)
    : l1d_(l1d_config), cyclesPerAccess_(cycles_per_access)
{
    ltc_assert(cycles_per_access > 0.0,
               "cycles per access must be positive");
    l1d_.setListener(this);
}

DeadTimeAnalysis::~DeadTimeAnalysis()
{
    l1d_.setListener(nullptr);
}

void
DeadTimeAnalysis::onEviction(Addr victim_addr, Addr incoming_addr,
                             std::uint32_t set, bool by_prefetch,
                             bool victim_was_untouched_prefetch,
                             bool victim_dirty,
                             std::uint8_t victim_meta)
{
    (void)incoming_addr;
    (void)set;
    (void)by_prefetch;
    (void)victim_was_untouched_prefetch;
    (void)victim_dirty;
    (void)victim_meta;
    auto it = lastTouch_.find(victim_addr);
    if (it == lastTouch_.end())
        return;
    const double dead = now_ - it->second;
    lastTouch_.erase(it);
    hist_.sample(static_cast<std::uint64_t>(dead));
}

void
DeadTimeAnalysis::step(const MemRef &ref)
{
    now_ += cyclesPerAccess_ * (1.0 + ref.nonMemGap);
    l1d_.access(ref.addr, ref.op);
    lastTouch_[l1d_.blockAlign(ref.addr)] = now_;
}

std::uint64_t
DeadTimeAnalysis::run(TraceSource &src, std::uint64_t refs)
{
    return puller_.forEach(src, refs,
                           [this](const MemRef &ref) { step(ref); });
}

double
DeadTimeAnalysis::fractionLongerThan(Cycle cycles) const
{
    return 1.0 - hist_.cdfAt(cycles);
}

} // namespace ltc
