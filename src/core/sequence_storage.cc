#include "core/sequence_storage.hh"

#include "util/bitops.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace ltc
{

SequenceStorage::SequenceStorage(const LtcordsConfig &config)
    : config_(config)
{
    ltc_assert(isPowerOf2(config_.numFrames),
               "frame count must be a power of two, got ",
               config_.numFrames);
    ltc_assert(config_.fragmentSignatures > 0,
               "fragments must hold at least one signature");
    frames_.resize(config_.numFrames);
    recentKeys_.assign(std::max<std::uint32_t>(1, config_.headLookahead),
                       0);
}

void
SequenceStorage::beginFragment(std::uint64_t incoming_key)
{
    // The head is the signature recorded `headLookahead` positions
    // ago; before enough history exists, the incoming signature
    // itself serves as head (zero lookahead for the very first
    // fragment).
    std::uint64_t head = incoming_key;
    if (recordedTotal_ >= config_.headLookahead && config_.headLookahead)
        head = recentKeys_[recentPos_]; // oldest slot, see record()

    const auto frame =
        static_cast<std::uint32_t>(head & (config_.numFrames - 1));
    Frame &f = frames_[frame];
    if (f.valid) {
        frameConflicts_++;
        if (f.owner != currentTenant_)
            crossTenantConflicts_++;
        if (reallocCallback_)
            reallocCallback_(frame);
    }
    f.valid = true;
    f.headKey = head;
    f.owner = currentTenant_;
    f.sigs.clear();
    f.sigs.reserve(std::min<std::uint32_t>(config_.fragmentSignatures,
                                           4096));
    recordFrame_ = frame;
}

std::uint32_t
SequenceStorage::frameFill(std::uint32_t frame) const
{
    ltc_assert(frame < frames_.size(), "frame out of range: ", frame);
    const Frame &f = frames_[frame];
    return f.valid ? static_cast<std::uint32_t>(f.sigs.size()) : 0;
}

bool
SequenceStorage::frameValid(std::uint32_t frame) const
{
    ltc_assert(frame < frames_.size(), "frame out of range: ", frame);
    return frames_[frame].valid;
}

void
SequenceStorage::updateConfidence(std::uint32_t frame,
                                  std::uint32_t offset,
                                  std::uint8_t confidence)
{
    ltc_assert(frame < frames_.size(), "frame out of range: ", frame);
    Frame &f = frames_[frame];
    if (!f.valid || offset >= f.sigs.size())
        return; // the fragment was re-recorded under us; stale pointer
    f.sigs[offset].confidence = confidence;
    // Confidence updates ride otherwise-unused bus cycles
    // (Section 4.4); we still account the byte moved.
    pendingWriteBytes_ += 1;
}

void
SequenceStorage::noteStreamRead(std::uint64_t sigs)
{
    pendingReadBytes_ += sigs * config_.signatureBytes;
}

std::uint64_t
SequenceStorage::residentSignatures() const
{
    std::uint64_t n = 0;
    for (const Frame &f : frames_)
        if (f.valid)
            n += f.sigs.size();
    return n;
}

std::uint32_t
SequenceStorage::framesInUse() const
{
    std::uint32_t n = 0;
    for (const Frame &f : frames_)
        n += f.valid ? 1 : 0;
    return n;
}

std::uint64_t
SequenceStorage::drainWriteBytes()
{
    const std::uint64_t v = pendingWriteBytes_;
    pendingWriteBytes_ = 0;
    return v;
}

std::uint64_t
SequenceStorage::drainReadBytes()
{
    const std::uint64_t v = pendingReadBytes_;
    pendingReadBytes_ = 0;
    return v;
}

void
SequenceStorage::auditInvariants() const
{
    LTC_CHECK(frames_.size() == config_.numFrames, frames_.size(),
              " frames allocated, configured for ", config_.numFrames);
    LTC_CHECK(recentKeys_.size() ==
                  std::max<std::uint32_t>(1, config_.headLookahead),
              "head-history ring holds ", recentKeys_.size(),
              " keys for lookahead ", config_.headLookahead);
    LTC_CHECK(recentPos_ < recentKeys_.size(),
              "head-history cursor ", recentPos_,
              " outside the ring of ", recentKeys_.size());

    std::uint64_t resident = 0;
    for (std::size_t i = 0; i < frames_.size(); i++) {
        const Frame &f = frames_[i];
        if (!f.valid) {
            LTC_CHECK(f.sigs.empty(), "invalid frame ", i, " holds ",
                      f.sigs.size(), " signatures");
            continue;
        }
        LTC_CHECK(f.sigs.size() <= config_.fragmentSignatures,
                  "frame ", i, " overfull: ", f.sigs.size(), " of ",
                  config_.fragmentSignatures, " signatures");
        LTC_CHECK((f.headKey & (config_.numFrames - 1)) == i,
                  "frame link broken: head key of frame ", i,
                  " maps to frame ",
                  f.headKey & (config_.numFrames - 1));
        resident += f.sigs.size();
    }
    if (recordFrame_) {
        LTC_CHECK(*recordFrame_ < frames_.size(), "record cursor ",
                  *recordFrame_, " outside ", frames_.size(),
                  " frames");
        LTC_CHECK(frames_[*recordFrame_].valid,
                  "record cursor points at invalid frame ",
                  *recordFrame_);
    }
    LTC_CHECK(resident <= recordedTotal_, resident,
              " resident signatures exceed ", recordedTotal_,
              " ever recorded");
}

} // namespace ltc
