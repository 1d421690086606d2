#include "pred/stride.hh"

#include "util/bitops.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace ltc
{

StridePrefetcher::StridePrefetcher(const StrideConfig &config)
    : config_(config)
{
    ltc_assert(isPowerOf2(config_.entries),
               "stride table size must be a power of two");
    table_.resize(config_.entries);
}

void
StridePrefetcher::observe(const MemRef &ref, const HierOutcome &out)
{
    if (out.l1Hit())
        return;

    Entry &e = table_[mix64(ref.pc) & (config_.entries - 1)];
    if (!e.valid || e.pcTag != ref.pc) {
        e.valid = true;
        e.pcTag = ref.pc;
        e.lastAddr = ref.addr;
        e.stride = 0;
        e.confidence = 0;
        return;
    }

    const std::int64_t stride = static_cast<std::int64_t>(ref.addr) -
        static_cast<std::int64_t>(e.lastAddr);
    e.lastAddr = ref.addr;
    if (stride == 0)
        return;

    if (stride == e.stride) {
        if (e.confidence < 3)
            e.confidence++;
    } else {
        if (e.confidence > 0) {
            e.confidence--;
        } else {
            e.stride = stride;
        }
        return;
    }

    if (e.confidence >= 2) {
        armed_++;
        Addr target = ref.addr;
        for (std::uint32_t i = 0; i < config_.degree; i++) {
            target += static_cast<Addr>(e.stride);
            PrefetchRequest req;
            req.target = target;
            req.intoL1 = false;
            enqueue(req);
            issued_++;
        }
    }
}

void
StridePrefetcher::exportStats(StatSet &set) const
{
    set.set("armed", static_cast<double>(armed_));
    set.set("prefetches_issued", static_cast<double>(issued_));
}

} // namespace ltc
