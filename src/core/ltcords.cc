#include "core/ltcords.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace ltc
{

namespace
{

std::uint64_t
computeOnChipBytes(const LtcordsConfig &c)
{
    // Signature cache: 42-bit entries (Section 5.6). Sequence tag
    // array: per frame, a head hash (we charge 23 bits) plus a window
    // position (log2(fragment) bits, <= 13 in the paper's config).
    const std::uint64_t sig_bits =
        static_cast<std::uint64_t>(c.sigCacheEntries) * 42;
    const std::uint64_t tag_bits =
        static_cast<std::uint64_t>(c.numFrames) * (23 + 13);
    return (sig_bits + tag_bits) / 8;
}

} // namespace

std::uint64_t
LtcordsConfig::onChipBytes() const
{
    return computeOnChipBytes(*this);
}

LtCords::LtCords(const LtcordsConfig &config)
    : config_(config), history_(config.l1Sets, config.lineBytes),
      sigCache_(config.sigCacheEntries, config.sigCacheAssoc),
      storage_(config), streams_(config.numFrames)
{
    sigCache_.configurePartitions(config.sigCachePartitions);
    storage_.setReallocCallback([this](std::uint32_t frame) {
        // A frame was re-recorded: every on-chip copy and every
        // in-flight batch from the old fragment is stale.
        sigCache_.invalidateFrame(frame);
        streams_[frame] = StreamState{};
        std::erase_if(pending_, [frame](const PendingBatch &b) {
            return b.frame == frame;
        });
    });
}

void
LtCords::selectTenant(std::uint32_t tenant)
{
    sigCache_.selectTenant(tenant);
    storage_.setTenant(tenant);
}

void
LtCords::setNow(Cycle now)
{
    now_ = std::max(now_, now);
    processPending();
}

void
LtCords::processPending()
{
    while (!pending_.empty() && pending_.front().ready <= now_) {
        const PendingBatch b = pending_.front();
        pending_.pop_front();
        for (std::uint32_t off = b.from; off < b.to; off++)
            installSignature(b.frame, off);
    }
}

void
LtCords::installSignature(std::uint32_t frame, std::uint32_t offset)
{
    const StoredSignature *sig = storage_.at(frame, offset);
    if (!sig)
        return; // fragment shrank (re-recorded); pointer is stale
    SigCacheEntry entry;
    entry.key = sig->key;
    entry.replacement = sig->replacement;
    entry.victim = sig->victim;
    entry.confidence = sig->confidence;
    entry.frame = frame;
    entry.offset = offset;
    sigCache_.insert(entry);
    sigStreamed_++;
}

void
LtCords::streamRange(std::uint32_t frame, std::uint32_t from,
                     std::uint32_t to)
{
    if (from >= to)
        return;
    storage_.noteStreamRead(to - from);
    if (!config_.modelStreamLatency) {
        for (std::uint32_t off = from; off < to; off++)
            installSignature(frame, off);
        return;
    }
    // Transfers move in streamBatch units; each batch arrives after
    // the stream latency (batches pipeline, so we charge one latency
    // per batch from request time — conservative for back-to-back
    // batches).
    for (std::uint32_t start = from; start < to;
         start += config_.streamBatch) {
        PendingBatch b;
        b.ready = now_ + config_.streamLatencyCycles;
        b.frame = frame;
        b.from = start;
        b.to = std::min<std::uint32_t>(start + config_.streamBatch, to);
        pending_.push_back(b);
    }
}

void
LtCords::activateFrame(std::uint32_t frame)
{
    headActivations_++;
    StreamState &s = streams_[frame];
    // A head recurrence means the sequence is starting again: rewind
    // the window to the fragment start.
    s.active = true;
    s.streamedPos = std::min<std::uint32_t>(
        config_.windowAhead, storage_.frameFill(frame));
    streamRange(frame, 0, s.streamedPos);
}

void
LtCords::advanceWindow(std::uint32_t frame, std::uint32_t offset)
{
    StreamState &s = streams_[frame];
    const std::uint32_t fill = storage_.frameFill(frame);
    const std::uint32_t target = std::min<std::uint32_t>(
        fill,
        std::min<std::uint64_t>(
            static_cast<std::uint64_t>(offset) + config_.windowAhead,
            fill));
    if (target > s.streamedPos) {
        streamRange(frame, s.streamedPos, target);
        s.streamedPos = target;
    }
}

void
LtCords::observe(const MemRef &ref, const HierOutcome &out)
{
    processPending();

    const std::uint32_t set = out.l1Set;
    const Addr block = ref.addr & ~static_cast<Addr>(config_.lineBytes - 1);

    // Record: a demand miss that evicted a block defines a last-touch
    // signature, keyed by the window state BEFORE the miss PC enters.
    if (!out.l1Hit() && out.l1Victim.evicted) {
        const std::uint64_t record_key = history_.signatureKey(set);
        storage_.record(record_key, block, out.l1Victim.addr);
        history_.closeWindow(set, out.l1Victim.addr);
    }

    history_.recordAccess(set, ref.pc);
    const std::uint64_t lookup_key = history_.signatureKey(set);

    // Head recurrence: begin streaming the fragment this head
    // precedes (Section 4.2).
    if (auto frame = storage_.frameForHead(lookup_key))
        activateFrame(*frame);

    // Prediction: a signature-cache hit identifies a last touch.
    if (const SigPayload *e = sigCache_.lookup(lookup_key)) {
        // Capture before advancing: streaming may overwrite *e.
        const Addr replacement = e->replacement;
        const Addr victim = e->victim;
        const std::uint8_t confidence = e->confidence;
        const std::uint32_t frame = e->frame;
        const std::uint32_t offset = e->offset;

        advanceWindow(frame, offset);

        if (confidence >= config_.confidenceThreshold) {
            predictions_++;
            PrefetchRequest req;
            req.target = replacement;
            req.predictedVictim = victim;
            req.intoL1 = true;
            enqueue(req);
            outstanding_.insert(
                replacement & ~static_cast<Addr>(config_.lineBytes - 1),
                SigPtr{frame, offset});
        } else {
            lowConfidence_++;
        }
    }
}

void
LtCords::onPrefetchEviction(Addr victim_addr, Addr incoming_addr)
{
    const unsigned line_bits = floorLog2(config_.lineBytes);
    const auto set = static_cast<std::uint32_t>(
        (incoming_addr >> line_bits) & (config_.l1Sets - 1));
    history_.closeWindow(set, victim_addr);
}

void
LtCords::feedback(const PrefetchFeedback &fb)
{
    const Addr block =
        fb.target & ~static_cast<Addr>(config_.lineBytes - 1);
    const SigPtr *found = outstanding_.find(block);
    if (!found)
        return;
    const SigPtr ptr = *found;
    outstanding_.erase(block);

    const StoredSignature *sig = storage_.at(ptr.frame, ptr.offset);
    if (!sig)
        return; // fragment re-recorded since the prediction
    std::uint8_t conf = sig->confidence;
    if (fb.useless) {
        conf = conf > 0 ? conf - 1 : 0;
        confidenceDowns_++;
    } else {
        conf = std::min<std::uint8_t>(config_.confidenceMax, conf + 1);
        confidenceUps_++;
    }
    // Exact off-chip update through the self-pointer (Section 4.4);
    // the on-chip copy refreshes the next time the window streams it.
    storage_.updateConfidence(ptr.frame, ptr.offset, conf);
}

std::pair<std::uint64_t, std::uint64_t>
LtCords::drainMetaTraffic()
{
    return {storage_.drainWriteBytes(), storage_.drainReadBytes()};
}

void
LtCords::exportStats(StatSet &set) const
{
    set.set("head_activations", static_cast<double>(headActivations_));
    set.set("predictions", static_cast<double>(predictions_));
    set.set("low_confidence", static_cast<double>(lowConfidence_));
    set.set("signatures_streamed", static_cast<double>(sigStreamed_));
    set.set("signatures_recorded",
            static_cast<double>(storage_.recordedTotal()));
    set.set("frames_in_use", static_cast<double>(storage_.framesInUse()));
    set.set("frame_conflicts",
            static_cast<double>(storage_.frameConflicts()));
    set.set("cross_tenant_conflicts",
            static_cast<double>(storage_.crossTenantConflicts()));
    set.set("sigcache_hits", static_cast<double>(sigCache_.hits()));
    set.set("sigcache_lookups", static_cast<double>(sigCache_.lookups()));
    set.set("sigcache_fifo_evictions",
            static_cast<double>(sigCache_.fifoEvictions()));
    set.set("confidence_ups", static_cast<double>(confidenceUps_));
    set.set("confidence_downs", static_cast<double>(confidenceDowns_));
    set.set("onchip_bytes", static_cast<double>(onChipBytes()));
}

void
LtCords::auditInvariants() const
{
    storage_.auditInvariants();
    LTC_CHECK(streams_.size() == config_.numFrames,
              streams_.size(), " stream windows for ",
              config_.numFrames, " frames");
    for (std::size_t i = 0; i < streams_.size(); i++) {
        if (!streams_[i].active)
            continue;
        LTC_CHECK(storage_.frameValid(static_cast<std::uint32_t>(i)),
                  "active stream over invalid frame ", i);
        LTC_CHECK(streams_[i].streamedPos <= config_.fragmentSignatures,
                  "stream window of frame ", i, " past fragment end: ",
                  streams_[i].streamedPos);
    }
    for (const PendingBatch &b : pending_) {
        LTC_CHECK(b.frame < config_.numFrames,
                  "pending batch for frame ", b.frame, " of ",
                  config_.numFrames);
        LTC_CHECK(b.from <= b.to, "pending batch range reversed: [",
                  b.from, ", ", b.to, ")");
    }
    outstanding_.auditInvariants();
    outstanding_.forEach([this](Addr target, const SigPtr &ptr) {
        LTC_CHECK(ptr.frame < config_.numFrames,
                  "outstanding prediction for block ", target,
                  " points at frame ", ptr.frame, " of ",
                  config_.numFrames);
    });
}

std::uint64_t
LtCords::onChipBytes() const
{
    return computeOnChipBytes(config_);
}

} // namespace ltc
