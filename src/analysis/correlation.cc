#include "analysis/correlation.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/logging.hh"

namespace ltc
{

std::size_t
CorrelationAnalysis::MissLabelHash::operator()(
    const MissLabel &label) const
{
    std::uint64_t h = mix64(label.pc);
    h = hashCombine(h, label.missBlock);
    h = hashCombine(h, label.evictedBlock);
    return static_cast<std::size_t>(h);
}

CorrelationAnalysis::CorrelationAnalysis(const CacheConfig &l1d_config,
                                         std::int64_t window)
    : l1d_(l1d_config), window_(window)
{
    ltc_assert(window_ > 0, "correlation window must be positive");
}

void
CorrelationAnalysis::closeRun()
{
    if (runLength_ > 0) {
        // Weight by length: the CDF reads as "fraction of correlated
        // misses found in sequences of at least this length".
        result_.sequenceLength.sample(runLength_, runLength_);
        runLength_ = 0;
    }
}

void
CorrelationAnalysis::recordMiss(Addr pc, Addr block, Addr victim)
{
    result_.misses++;
    const std::uint64_t this_index = missIndex_++;

    // Metric 3: victim's last-touch time vs this miss's position.
    auto lt = lastTouch_.find(victim);
    if (lt != lastTouch_.end()) {
        evictions_.emplace_back(lt->second, this_index);
        lastTouch_.erase(lt);
    }

    // Metrics 1 and 2: temporal correlation distance.
    const MissLabel label{pc, block, victim};
    auto it = prevPos_.find(label);
    const bool seen = it != prevPos_.end();
    const std::uint64_t prev = seen ? it->second : 0;

    if (havePrevMiss_ && seen && prevMissSeenBefore_) {
        const auto distance = static_cast<std::int64_t>(prev) -
            static_cast<std::int64_t>(prevMissPrevPos_);
        const std::uint64_t abs_distance = static_cast<std::uint64_t>(
            distance < 0 ? -distance : distance);
        result_.distance.sample(abs_distance);
        if (distance == 1)
            result_.perfect++;
        if (distance != 0 &&
            abs_distance <= static_cast<std::uint64_t>(window_)) {
            runLength_++;
        } else {
            closeRun();
        }
    } else {
        result_.uncorrelated++;
        closeRun();
    }

    prevPos_[label] = this_index;
    havePrevMiss_ = true;
    prevMissSeenBefore_ = seen;
    prevMissPrevPos_ = prev;
}

void
CorrelationAnalysis::step(const MemRef &ref)
{
    accessIndex_++;
    const Addr block = l1d_.blockAlign(ref.addr);
    const CacheOutcome out = l1d_.access(ref.addr, ref.op);
    if (out.evicted)
        recordMiss(ref.pc, block, out.victimAddr);
    lastTouch_[block] = accessIndex_;
}

std::uint64_t
CorrelationAnalysis::run(TraceSource &src, std::uint64_t refs)
{
    return puller_.forEach(src, refs,
                           [this](const MemRef &ref) { step(ref); });
}

CorrelationResult
CorrelationAnalysis::finish()
{
    closeRun();

    // Metric 3: sort evictions into last-touch order and histogram
    // the distances between consecutive last touches' miss positions.
    std::sort(evictions_.begin(), evictions_.end());
    for (std::size_t i = 1; i < evictions_.size(); i++) {
        const auto d =
            static_cast<std::int64_t>(evictions_[i].second) -
            static_cast<std::int64_t>(evictions_[i - 1].second);
        result_.lastTouchDistance.sample(
            static_cast<std::uint64_t>(d < 0 ? -d : d));
    }
    evictions_.clear();
    return result_;
}

} // namespace ltc
