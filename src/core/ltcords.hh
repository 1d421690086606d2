/**
 * @file
 * Last-Touch Correlated Data Streaming — the paper's contribution.
 *
 * LT-cords combines:
 *  - a DBCP-style history table producing last-touch signatures
 *    (pred/history_table.hh),
 *  - off-chip sequence storage recording those signatures in
 *    discovery (cache-miss) order (core/sequence_storage.hh),
 *  - a small on-chip signature cache holding sliding windows of the
 *    active sequences (core/signature_cache.hh), and
 *  - a streaming engine: when a fragment's head signature recurs, the
 *    fragment is streamed on chip; each used signature advances its
 *    fragment's sliding window.
 *
 * Signature-cache hits with saturated confidence identify last
 * touches and trigger prefetches of the recorded replacement block
 * directly into L1D, replacing the predicted dead block.
 */

#ifndef LTC_CORE_LTCORDS_HH
#define LTC_CORE_LTCORDS_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/ltcords_config.hh"
#include "core/sequence_storage.hh"
#include "core/signature_cache.hh"
#include "pred/history_table.hh"
#include "pred/prefetcher.hh"
#include "util/flat_map.hh"

namespace ltc
{

/** The LT-cords streaming predictor (see the file comment). */
class LtCords : public Prefetcher
{
  public:
    /** Build an engine sized by @p config. */
    explicit LtCords(const LtcordsConfig &config);

    /** Observe one reference: train, record, stream, predict. */
    void observe(const MemRef &ref, const HierOutcome &out) override;
    /** A prefetched block evicted @p victim_addr (tracking). */
    void onPrefetchEviction(Addr victim_addr,
                            Addr incoming_addr) override;
    /** Prefetch outcome feedback: drives confidence updates. */
    void feedback(const PrefetchFeedback &fb) override;
    /** Advance the engine's notion of time (latency modelling). */
    void setNow(Cycle now) override;
    /**
     * Route the on-chip signature cache to @p tenant's partition
     * slice (no-op layout in shared mode) and attribute subsequently
     * recorded fragments to it. Cold path: once per quantum.
     */
    void selectTenant(std::uint32_t tenant) override;
    /** Drain (write, read) off-chip signature bytes since last call. */
    std::pair<std::uint64_t, std::uint64_t> drainMetaTraffic() override;

    /** Predictor name ("lt-cords"). */
    std::string name() const override { return "lt-cords"; }
    /** Export engine counters into @p set. */
    void exportStats(StatSet &set) const override;
    /**
     * Audit the off-chip sequence storage plus the engine's own
     * streaming state (per-frame windows, pending batches,
     * outstanding-prediction pointers). See Prefetcher.
     */
    void auditInvariants() const override;

    /** Configuration the engine was built with. */
    const LtcordsConfig &config() const { return config_; }
    /** Off-chip sequence storage (read access for stats/tests). */
    const SequenceStorage &storage() const { return storage_; }

    /** On-chip storage in bytes (signature cache + tag array). */
    std::uint64_t onChipBytes() const;

  private:
    /** Begin streaming @p frame from its start (head recurrence). */
    void activateFrame(std::uint32_t frame);

    /** Used signature at (frame, offset): advance the window. */
    void advanceWindow(std::uint32_t frame, std::uint32_t offset);

    /**
     * Stream signatures [from, to) of @p frame into the signature
     * cache, batched; with latency modelling enabled, arrival is
     * deferred by the configured stream latency.
     */
    void streamRange(std::uint32_t frame, std::uint32_t from,
                     std::uint32_t to);

    /** Insert one stored signature (made visible on chip). */
    void installSignature(std::uint32_t frame, std::uint32_t offset);

    /** Deliver deferred stream arrivals up to now_. */
    void processPending();

    LtcordsConfig config_;
    HistoryTable history_;
    SignatureCache sigCache_;
    SequenceStorage storage_;

    /** Per-frame streaming state (window position per Section 4.3). */
    struct StreamState
    {
        /** Next off-chip offset to stream in. */
        std::uint32_t streamedPos = 0;
        /** Frame has been activated since its last (re-)recording. */
        bool active = false;
    };
    std::vector<StreamState> streams_;

    /** Deferred arrival of a streamed batch (latency modelling). */
    struct PendingBatch
    {
        Cycle ready = 0;
        std::uint32_t frame = 0;
        std::uint32_t from = 0;
        std::uint32_t to = 0;
    };
    std::deque<PendingBatch> pending_;
    Cycle now_ = 0;

    /** Outstanding predictions: target block -> signature pointer.
     *  Open-addressed (util/flat_map.hh): one insert per prediction
     *  and one probe+erase per feedback sit on the hot path, and the
     *  node churn of the hash map this replaces dominated the
     *  lt-cords profile. */
    struct SigPtr
    {
        std::uint32_t frame = 0;
        std::uint32_t offset = 0;
    };
    AddrMap<SigPtr> outstanding_;

    // Statistics.
    std::uint64_t headActivations_ = 0;
    std::uint64_t predictions_ = 0;
    std::uint64_t lowConfidence_ = 0;
    std::uint64_t sigStreamed_ = 0;
    std::uint64_t confidenceUps_ = 0;
    std::uint64_t confidenceDowns_ = 0;
};

} // namespace ltc

#endif // LTC_CORE_LTCORDS_HH
