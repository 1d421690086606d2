/**
 * @file
 * Off-chip sequence storage and the sequence tag array (Section 4.2).
 *
 * Main memory is partitioned into frames, each holding one fragment:
 * a fixed-length sub-sequence of consecutive last-touch signatures in
 * the order they were discovered (cache-miss order). A fragment is
 * associated with a *head signature* — the signature that precedes
 * the fragment in the recorded sequence by `headLookahead` positions —
 * and maps to a frame by the low-order bits of that head (direct
 * mapped; a new fragment overwrites an old one in the same frame).
 * The on-chip sequence tag array stores each frame's head hash so a
 * recurring head can be recognised and the fragment streamed back in.
 *
 * There is no explicit sequence start/stop: recording appends for as
 * long as cache misses occur (Section 4.2). Write traffic is batched
 * in `streamBatch`-signature units (Section 4.1) and accounted so the
 * engines can charge the memory bus.
 */

#ifndef LTC_CORE_SEQUENCE_STORAGE_HH
#define LTC_CORE_SEQUENCE_STORAGE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/ltcords_config.hh"
#include "util/check.hh"
#include "util/types.hh"

namespace ltc
{

/** One signature as stored off chip. */
struct StoredSignature
{
    /** Last-touch signature (history-trace hash mixed with tag). */
    std::uint64_t key = 0;
    /** Predicted replacement block to prefetch. */
    Addr replacement = invalidAddr;
    /** Block whose last touch this signature identifies. */
    Addr victim = invalidAddr;
    /** 2-bit prediction confidence (written back, Section 4.4). */
    std::uint8_t confidence = 0;
};

/** Frames-of-fragments sequence store (see the file comment). */
class SequenceStorage
{
  public:
    /** Build storage sized by @p config (numFrames x fragment). */
    explicit SequenceStorage(const LtcordsConfig &config);

    /**
     * Append one signature to the recorded sequence (confidence is
     * set to the configured initial value). Defined inline below: one
     * call per L1 miss in the LT-cords observe path.
     */
    void record(std::uint64_t key, Addr replacement, Addr victim);

    /**
     * Sequence tag array lookup: the frame whose head hash matches
     * @p key, if any. Inline: probed once per L1 miss.
     */
    std::optional<std::uint32_t> frameForHead(std::uint64_t key) const;

    /** Signature at (frame, offset); nullptr past the fragment fill.
     *  Inline: the streaming path reads a window per head match. */
    const StoredSignature *at(std::uint32_t frame,
                              std::uint32_t offset) const;

    /** Signatures currently recorded in @p frame. */
    std::uint32_t frameFill(std::uint32_t frame) const;

    /** True when @p frame holds a (possibly partial) fragment. */
    bool frameValid(std::uint32_t frame) const;

    /**
     * Direct off-chip confidence update through a signature-cache
     * pointer (Section 4.4).
     */
    void updateConfidence(std::uint32_t frame, std::uint32_t offset,
                          std::uint8_t confidence);

    /**
     * Called whenever a frame is re-allocated to a new fragment, so
     * the owner can invalidate stale on-chip copies.
     */
    void
    setReallocCallback(std::function<void(std::uint32_t)> cb)
    {
        reallocCallback_ = std::move(cb);
    }

    /** Account a streaming read of @p sigs signatures. */
    void noteStreamRead(std::uint64_t sigs);

    /**
     * Attribute subsequently recorded fragments to @p tenant
     * (multi-programming, Section 5.5 scaled out). Cold path: set
     * once per scheduling quantum. Frames record their owner when a
     * fragment begins, which is what crossTenantConflicts() compares.
     */
    void setTenant(std::uint32_t tenant) { currentTenant_ = tenant; }

    /**
     * Frame conflicts where the new fragment's tenant overwrote a
     * fragment recorded by a *different* tenant — the cross-tenant
     * interference the scaled-out Fig. 11 sweep tracks.
     */
    std::uint64_t crossTenantConflicts() const
    {
        return crossTenantConflicts_;
    }

    /** Total signatures ever recorded. */
    std::uint64_t recordedTotal() const { return recordedTotal_; }
    /** Frames holding fragments. */
    std::uint32_t framesInUse() const;
    /** Fragments overwritten by frame conflicts. */
    std::uint64_t frameConflicts() const { return frameConflicts_; }

    /** Off-chip bytes written since the last drain (seq. creation). */
    std::uint64_t drainWriteBytes();
    /** Off-chip bytes read since the last drain (seq. fetch). */
    std::uint64_t drainReadBytes();

    /**
     * LTC_CHECK every frame-link invariant: a valid frame's head key
     * must map back to that frame (the direct-mapped link the
     * streaming path follows), fragments never exceed the configured
     * length, invalid frames hold nothing, the record cursor points
     * at a valid frame, and the occupancy counters are mutually
     * consistent. Cold path; panics on the first violation.
     */
    void auditInvariants() const;

    /** Configuration the storage was built with. */
    const LtcordsConfig &config() const { return config_; }

  private:
    void beginFragment(std::uint64_t incoming_key);

    LtcordsConfig config_;

    struct Frame
    {
        std::uint64_t headKey = 0;
        std::vector<StoredSignature> sigs;
        bool valid = false;
        /** Tenant that recorded the resident fragment. */
        std::uint32_t owner = 0;
    };

    std::vector<Frame> frames_;
    /** Frame currently being appended to; none before first record. */
    std::optional<std::uint32_t> recordFrame_;

    /**
     * Ring of the most recent `headLookahead` recorded keys, used to
     * pick the head signature when a new fragment begins. recentPos_
     * always names the oldest slot (the next to be overwritten) and
     * wraps explicitly on increment — indexing a monotonic counter
     * with `% size` would skew head selection for non-power-of-two
     * lookaheads once the counter wraps, and costs a division per
     * record besides.
     */
    std::vector<std::uint64_t> recentKeys_;
    std::size_t recentPos_ = 0;

    std::function<void(std::uint32_t)> reallocCallback_;

    std::uint64_t recordedTotal_ = 0;
    std::uint64_t frameConflicts_ = 0;
    std::uint64_t pendingWriteBytes_ = 0;
    std::uint64_t pendingReadBytes_ = 0;

    /** Tenant new fragments are attributed to (setTenant). */
    std::uint32_t currentTenant_ = 0;
    std::uint64_t crossTenantConflicts_ = 0;

    /** Death-test hook: lets the invariant suite corrupt state. */
    friend struct TestPeer;
};

// ------------------------------------------------------ hot path
//
// record() runs once per L1 miss and frameForHead()/at() once per
// miss / streamed signature in the LT-cords observe path; defined
// inline so the predictor's per-reference loop crosses no call
// boundary for them (beginFragment stays out of line — it runs once
// per fragment).
//
// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

inline void
SequenceStorage::record(std::uint64_t key, Addr replacement,
                        Addr victim)
{
    if (!recordFrame_ ||
        frames_[*recordFrame_].sigs.size() >= config_.fragmentSignatures)
        beginFragment(key);

    Frame &f = frames_[*recordFrame_];
    StoredSignature sig;
    sig.key = key;
    sig.replacement = replacement;
    sig.victim = victim;
    sig.confidence = config_.confidenceInit;
    f.sigs.push_back(sig);

    // Head-history ring: recentPos_ is the oldest slot (the key
    // recorded `headLookahead` positions ago, which beginFragment
    // reads as the head); overwrite it and advance with an explicit
    // wrap.
    recentKeys_[recentPos_] = key;
    recentPos_++;
    if (recentPos_ == recentKeys_.size())
        recentPos_ = 0;

    recordedTotal_++;
    pendingWriteBytes_ += config_.signatureBytes;
}

inline std::optional<std::uint32_t>
SequenceStorage::frameForHead(std::uint64_t key) const
{
    const auto frame =
        static_cast<std::uint32_t>(key & (config_.numFrames - 1));
    const Frame &f = frames_[frame];
    if (f.valid && f.headKey == key)
        return frame;
    return std::nullopt;
}

inline const StoredSignature *
SequenceStorage::at(std::uint32_t frame, std::uint32_t offset) const
{
    LTC_DCHECK(frame < frames_.size(), "frame out of range: ", frame);
    const Frame &f = frames_[frame];
    if (!f.valid || offset >= f.sigs.size())
        return nullptr;
    return &f.sigs[offset];
}

// LTC_HOT_END

} // namespace ltc

#endif // LTC_CORE_SEQUENCE_STORAGE_HH
