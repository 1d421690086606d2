/**
 * @file
 * Last-touch history table shared by DBCP and LT-cords (Section 4.1).
 *
 * Organised like the L1D tag array: one entry per L1D set holding the
 * running PC-trace hash of committed memory instructions that touched
 * the set, plus the tags of the last two blocks evicted from the set.
 *
 * Window discipline (this is the part that makes recording and
 * prediction line up):
 *
 *  - Every committed access folds its PC into the set's trace.
 *  - The *signature key* of a set is hash(trace, prev-evicted tags).
 *    It is sampled in two places:
 *      (a) at a demand miss, BEFORE the miss PC is folded in: this is
 *          the key recorded with the eviction (it captures the window
 *          ending at the last pre-miss access to the set — the last
 *          touch);
 *      (b) after every access's PC is folded in: this is the lookup
 *          key, which matches (a) exactly when the recorded access
 *          sequence recurs.
 *  - Every eviction (demand or prefetch) closes the window: the trace
 *    resets and the victim tag shifts into the evicted-tag history.
 *    Under prediction, the prefetch fill evicts the victim at the same
 *    access position where the demand fill closed the window during
 *    recording (the replacement block maps to the victim's own set),
 *    so window contents stay identical across covered misses.
 */

#ifndef LTC_PRED_HISTORY_TABLE_HH
#define LTC_PRED_HISTORY_TABLE_HH

#include <cstdint>
#include <vector>

#include "util/hash.hh"
#include "util/types.hh"

namespace ltc
{

/** A last-touch signature key plus the prediction payload. */
struct LastTouchSignature
{
    /** Hashed (trace, evicted-tag history) key. */
    std::uint64_t key = 0;
    /** Block address the victim is replaced by (prefetch target). */
    Addr replacement = invalidAddr;
    /** Block address predicted dead at signature match. */
    Addr victim = invalidAddr;
};

class HistoryTable
{
  public:
    /**
     * @param num_sets   L1D set count (table mirrors the tag array).
     * @param line_bytes L1D line size, for block alignment.
     */
    HistoryTable(std::uint32_t num_sets, std::uint32_t line_bytes);

    /** Fold a committed access's PC into its set's trace. */
    void recordAccess(std::uint32_t set, Addr pc);

    /**
     * Current signature key of @p set: hash of the running trace and
     * the last two evicted tags.
     */
    std::uint64_t signatureKey(std::uint32_t set) const;

    /**
     * Close the window of @p set: reset its trace and shift
     * @p victim_block into the evicted-tag history. Call on every
     * eviction, demand or prefetch.
     */
    void closeWindow(std::uint32_t set, Addr victim_block);

    std::uint32_t numSets() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }

  private:
    struct Entry
    {
        TraceHash trace;
        Addr evicted[2] = {invalidAddr, invalidAddr};
    };

    std::vector<Entry> entries_;
    std::uint32_t lineBytes_;
};

} // namespace ltc

#endif // LTC_PRED_HISTORY_TABLE_HH
