/**
 * @file
 * ROB-window out-of-order core timing model.
 *
 * A compact substitute for SimpleScalar's sim-outorder that preserves
 * the mechanisms the paper's speedups depend on:
 *
 *  - issue and retire bandwidth of `width` instructions/cycle,
 *  - a finite reorder buffer: instruction k cannot enter the window
 *    until instruction k - robSize has retired, so long-latency
 *    misses at the ROB head stall the machine,
 *  - a finite load/store queue bounding memory instructions in
 *    flight,
 *  - in-order retirement: retire(k) >= max(complete(k), retire(k-1)),
 *    one retire slot per instruction at `width`/cycle.
 *
 * Internally time is kept in *slots* (1 slot = 1/width cycle) so all
 * arithmetic is exact integers. Independent misses naturally overlap
 * inside the window; dependent misses serialise because the engine
 * feeds the dependence chain in via the ready time of each access.
 */

#ifndef LTC_CPU_OOO_CORE_HH
#define LTC_CPU_OOO_CORE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cpu/core_config.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace ltc
{

class OooCore
{
  public:
    explicit OooCore(const CoreConfig &config);

    /**
     * Issue @p count single-cycle non-memory instructions. They occupy
     * issue bandwidth and ROB slots but never stall on data. Defined
     * inline below: the engines call this once per trace record, and
     * the per-instruction ring bookkeeping is the hot loop.
     */
    void issueNonMem(std::uint32_t count);

    /**
     * Begin issuing one memory instruction.
     * @return The cycle at which the instruction issues (i.e. the
     *         earliest cycle its address is available); the engine
     *         computes the access latency from this point.
     */
    Cycle beginMem();

    /**
     * Finish the memory instruction begun by beginMem().
     * @param completion Cycle its data arrives (>= its issue cycle).
     */
    void completeMem(Cycle completion);

    /** Instructions issued so far. */
    InstCount instructions() const { return instructions_; }

    /** Cycles elapsed once everything issued so far retires. */
    Cycle finishCycle() const;

    /** IPC over the lifetime of the core. */
    double ipc() const;

    /**
     * LTC_CHECK every ring invariant: head indices within their
     * rings, retire slots bounded by the newest retirement and
     * non-decreasing in insertion order (reversed or clobbered ring
     * indices silently violate in-order retirement), and instruction
     * counters mutually consistent. Cold path; panics on the first
     * violation.
     */
    void auditInvariants() const;

  private:
    using Slot = std::uint64_t; //!< 1 slot = 1/width cycle

    /** Latency of a non-memory instruction, cycles. */
    static constexpr Cycle nonMemLatency = 1;

    Slot robConstraint() const;
    Slot lsqConstraint() const;
    void retireAt(Slot completion_slot);

    CoreConfig config_;

    /** Ring of retire slots for the last robSize instructions. */
    std::vector<Slot> robRing_;
    std::uint64_t robHead_ = 0; //!< index of oldest entry

    /** Ring of retire slots for the last lsqSize memory insts. */
    std::vector<Slot> lsqRing_;
    std::uint64_t lsqHead_ = 0;

    Slot frontier_ = 0;   //!< next issue slot
    Slot lastRetire_ = 0; //!< retire slot of the newest instruction
    InstCount instructions_ = 0;
    InstCount memInstructions_ = 0;

    bool memPending_ = false;
    Slot pendingIssueSlot_ = 0;

    /** Death-test hook: lets the invariant suite corrupt state. */
    friend struct TestPeer;
};

// ------------------------------------------------------ hot path
//
// issueNonMem/beginMem/completeMem run once per trace record inside
// the engines' batched loops; they are defined inline here so the
// whole issue/retire chain compiles into the loop. The ring indices
// advance by exactly one per retirement, so the wrap is a compare
// (the old modulo was an integer division per instruction).
//
// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

inline OooCore::Slot
OooCore::robConstraint() const
{
    // Instruction k occupies the slot freed when instruction
    // k - robSize retires; the ring stores retire slots in insert
    // order, so the head entry is the blocking one.
    return robRing_[robHead_];
}

inline OooCore::Slot
OooCore::lsqConstraint() const
{
    return lsqRing_[lsqHead_];
}

inline void
OooCore::retireAt(Slot completion_slot)
{
    // In-order retirement, one slot (1/width cycle) per instruction.
    const Slot retire = std::max(completion_slot, lastRetire_ + 1);
    lastRetire_ = retire;
    robRing_[robHead_] = retire;
    if (++robHead_ == config_.robSize)
        robHead_ = 0;
}

inline void
OooCore::issueNonMem(std::uint32_t count)
{
    ltc_assert(!memPending_, "issueNonMem with memory access pending");
    const Slot alu_slots = nonMemLatency * config_.width;
    for (std::uint32_t i = 0; i < count; i++) {
        const Slot issue = std::max(frontier_, robConstraint());
        frontier_ = issue + 1;
        retireAt(issue + alu_slots);
    }
    instructions_ += count;
}

inline Cycle
OooCore::beginMem()
{
    ltc_assert(!memPending_, "beginMem with memory access pending");
    const Slot issue =
        std::max({frontier_, robConstraint(), lsqConstraint()});
    memPending_ = true;
    pendingIssueSlot_ = issue;
    // Round up: the address is available at the end of the issue
    // cycle.
    return issue / config_.width;
}

inline void
OooCore::completeMem(Cycle completion)
{
    ltc_assert(memPending_, "completeMem without beginMem");
    const Slot completion_slot = completion * config_.width;
    ltc_assert(completion_slot >= pendingIssueSlot_,
               "memory completes before it issues");
    frontier_ = pendingIssueSlot_ + 1;
    retireAt(completion_slot);
    lsqRing_[lsqHead_] = lastRetire_;
    if (++lsqHead_ == config_.lsqSize)
        lsqHead_ = 0;
    instructions_++;
    memInstructions_++;
    memPending_ = false;
}

// LTC_HOT_END

} // namespace ltc

#endif // LTC_CPU_OOO_CORE_HH
