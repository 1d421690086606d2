/**
 * @file
 * Bus occupancy model.
 *
 * Table 1 defines two busses: the L1/L2 bus (1-cycle request, 32 bytes
 * per cycle data) and the 32-byte-wide 1333 MHz memory bus behind the
 * L2. A transfer occupies the bus for request + data cycles; a
 * transfer that arrives while the bus is busy queues behind it. The
 * model keeps a busy-until horizon, which is exact for in-order
 * request service.
 */

#ifndef LTC_MEM_BUS_HH
#define LTC_MEM_BUS_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/types.hh"

namespace ltc
{

/** Configuration for one bus. */
struct BusConfig
{
    std::string name = "bus";
    /** Cycles to transmit the request/command. */
    Cycle requestCycles = 1;
    /** Data bytes moved per core cycle. */
    std::uint32_t bytesPerCycle = 32;
    /**
     * Clock ratio: core cycles per bus cycle (1 for the on-chip
     * L1/L2 bus; 3 for a 1333 MHz memory bus under a 4 GHz core).
     */
    std::uint32_t coreCyclesPerBusCycle = 1;

    /** Core cycles occupied by a transfer of @p bytes. */
    Cycle
    occupancy(std::uint32_t bytes) const
    {
        const Cycle data_cycles =
            (bytes + bytesPerCycle - 1) / bytesPerCycle;
        return (requestCycles + data_cycles) * coreCyclesPerBusCycle;
    }

    /** L1/L2 bus of Table 1. */
    static BusConfig l1l2();
    /** Memory bus of Table 1 (32-byte, 1333 MHz under 4 GHz core). */
    static BusConfig memory();
};

/** Single-channel bus with FIFO service and occupancy accounting. */
class Bus
{
  public:
    explicit Bus(const BusConfig &config);

    /**
     * Schedule a transfer of @p bytes that becomes ready at @p ready.
     * Defined inline below: the timing engine charges several
     * transfers per miss, so this sits on the batched kernel's
     * per-event path.
     * @return Core cycle at which the transfer completes.
     */
    Cycle transfer(Cycle ready, std::uint32_t bytes);

    // LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
    // operator and virtual declarations between these markers.

    /**
     * transfer() with the occupancy precomputed by the caller:
     * @p occ MUST equal the configuration's occupancy() of the
     * transfer's size. The timing engine's miss path moves
     * fixed-size transfers (a request or one cache block), so
     * hoisting the occupancy division out of the per-event path is
     * free; any other caller should use transfer().
     */
    Cycle
    transferPrecomputed(Cycle ready, Cycle occ)
    {
        const Cycle start = std::max(ready, busyUntil_);
        queueCycles_ += start - ready;
        busyUntil_ = start + occ;
        busyCycles_ += occ;
        transfers_++;
        return busyUntil_;
    }

    /** Earliest cycle >= @p now at which the bus is free. */
    Cycle freeAt(Cycle now) const { return std::max(now, busyUntil_); }

    // LTC_HOT_END

    /** Total core cycles the bus spent occupied. */
    Cycle busyCycles() const { return busyCycles_; }
    /** Total cycles transfers spent queued before starting. */
    Cycle queueCycles() const { return queueCycles_; }

    /**
     * LTC_CHECK the occupancy accounting: the busy horizon is
     * monotone (it can never lag the accumulated busy cycles, since
     * transfers serialize from cycle 0), every transfer contributed
     * at least a bare-request occupancy, and an idle bus has no
     * accounted work. Cold path; panics on the first violation.
     */
    void auditInvariants() const;

  private:
    BusConfig config_;
    Cycle busyUntil_ = 0;
    Cycle busyCycles_ = 0;
    Cycle queueCycles_ = 0;
    std::uint64_t transfers_ = 0;

    /** Death-test hook: lets the invariant suite corrupt state. */
    friend struct TestPeer;
};

inline Cycle
Bus::transfer(Cycle ready, std::uint32_t bytes)
{
    return transferPrecomputed(ready, config_.occupancy(bytes));
}

} // namespace ltc

#endif // LTC_MEM_BUS_HH
