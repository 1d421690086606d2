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
}

void
DeadTimeAnalysis::step(const MemRef &ref)
{
    now_ += cyclesPerAccess_ * (1.0 + ref.nonMemGap);
    const CacheOutcome out = l1d_.access(ref.addr, ref.op);
    if (out.evicted) {
        // The victim's dead time ends now.
        auto it = lastTouch_.find(out.victimAddr);
        if (it != lastTouch_.end()) {
            const double dead = now_ - it->second;
            lastTouch_.erase(it);
            hist_.sample(static_cast<std::uint64_t>(dead));
        }
    }
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
