/**
 * @file
 * LT-cords configuration (defaults follow Section 5.6 of the paper).
 *
 * The cycle-accurate configuration in the paper: 160MB of off-chip
 * sequence storage partitioned into 4K frames of 8K signatures each;
 * a 204KB 2-way set-associative signature cache holding 32K
 * signatures with FIFO replacement; a 10KB sequence tag array; 2-bit
 * confidence counters initialised to 2; 5-byte signatures off chip.
 */

#ifndef LTC_CORE_LTCORDS_CONFIG_HH
#define LTC_CORE_LTCORDS_CONFIG_HH

#include <cstdint>

#include "util/types.hh"

namespace ltc
{

/** Full parameter set for an LT-cords instance. */
struct LtcordsConfig
{
    //
    // On-chip signature cache (Section 5.6).
    //
    /** Total signature-cache entries (32K => ~204KB). */
    std::uint32_t sigCacheEntries = 32 * 1024;
    /** Signature-cache associativity (2-way at 32K entries). */
    std::uint32_t sigCacheAssoc = 2;
    /**
     * Partition the signature cache's set space into this many
     * per-tenant slices (multi-programming scaled out; see
     * SignatureCache::configurePartitions). 0/1 = shared mode, which
     * is bit-identical to an unpartitioned cache and is what every
     * single-program experiment uses.
     */
    std::uint32_t sigCachePartitions = 1;

    //
    // Off-chip sequence storage (Sections 4.2, 5.6).
    //
    /** Number of frames in main-memory sequence storage. */
    std::uint32_t numFrames = 4096;
    /**
     * Signatures per fragment (one fragment per frame). The paper
     * uses 8K — the largest size with <2% coverage loss at its
     * billion-instruction scale (Section 5.4). Our workloads are ~8x
     * scaled down, so the default here is 1K, which keeps the
     * fragment small relative to a loop iteration (the same ratio the
     * paper's choice achieves); the ablation bench sweeps the
     * parameter.
     */
    std::uint32_t fragmentSignatures = 1024;

    //
    // Streaming (Sections 3.3, 4.3).
    //
    /**
     * The head signature precedes its fragment by this many
     * signatures in the recorded sequence ("several hundred").
     */
    std::uint32_t headLookahead = 512;
    /**
     * Sliding window: keep signatures streamed in up to this far
     * beyond the most recently used signature of a fragment. Must
     * cover the last-touch/miss reorder distance (~1K, Section 5.2).
     */
    std::uint32_t windowAhead = 1024;
    /**
     * Model the off-chip retrieval latency of signature streams
     * (cycle engine); the trace engine leaves this off, matching the
     * paper's trace-driven studies.
     */
    bool modelStreamLatency = false;
    /**
     * Cycles from requesting a signature batch to its on-chip
     * arrival (DRAM access + transfer of one stream batch, see
     * LtCords::streamRange).
     */
    Cycle streamLatencyCycles = 230;

    //
    // Confidence (Section 4.4; threshold and maximum: pred/prefetcher.hh).
    //
    /** Initial 2-bit confidence (2 expedites training). */
    std::uint8_t confidenceInit = 2;

    //
    // L1D geometry (for the history table and victim set mapping).
    //
    /** L1D set count (history table is per-set). */
    std::uint32_t l1Sets = 512;
    /** Cache line size in bytes. */
    std::uint32_t lineBytes = 64;
};

} // namespace ltc

#endif // LTC_CORE_LTCORDS_CONFIG_HH
