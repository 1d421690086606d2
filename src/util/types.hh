/**
 * @file
 * Fundamental types shared by every LT-cords module.
 *
 * The simulator follows the paper's conventions: byte addresses are
 * 64-bit (the simulated machine uses a 30-bit physical space, Table 1),
 * time is measured in processor cycles at 4 GHz, and a memory reference
 * is the (PC, address, op) tuple that the trace infrastructure produces
 * and the cache hierarchy consumes.
 */

#ifndef LTC_UTIL_TYPES_HH
#define LTC_UTIL_TYPES_HH

#include <cstdint>
#include <string>

namespace ltc
{

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Processor cycle count (4 GHz clock in the reference configuration). */
using Cycle = std::uint64_t;

/** Dynamic instruction count. */
using InstCount = std::uint64_t;

/** An address that is never produced by any workload generator. */
constexpr Addr invalidAddr = ~static_cast<Addr>(0);

/** Kind of memory operation carried by a trace record. */
enum class MemOp : std::uint8_t
{
    Load,
    Store,
};

/** Printable name of a MemOp ("load" / "store"). */
const char *memOpName(MemOp op);

/**
 * One record of a memory-reference trace.
 *
 * Besides the architectural (pc, addr, op) triple, a record carries two
 * pieces of micro-architectural context used by the timing model:
 *
 *  - @c nonMemGap: the number of non-memory instructions that the
 *    workload executes between the previous memory reference and this
 *    one. SimpleScalar traces carry full instruction streams; our
 *    synthetic generators summarise the non-memory work this way.
 *
 *  - @c dependsOnPrev: true when the effective address of this
 *    reference is data-dependent on the value loaded by the previous
 *    memory reference (pointer chasing). Dependent misses cannot
 *    overlap in the baseline machine, which is precisely the
 *    memory-level-parallelism limitation LT-cords attacks (Section 2).
 */
struct MemRef
{
    Addr pc = 0;
    Addr addr = 0;
    MemOp op = MemOp::Load;
    std::uint32_t nonMemGap = 0;
    bool dependsOnPrev = false;

    bool isLoad() const { return op == MemOp::Load; }

    bool
    operator==(const MemRef &o) const
    {
        return pc == o.pc && addr == o.addr && op == o.op &&
            nonMemGap == o.nonMemGap && dependsOnPrev == o.dependsOnPrev;
    }
};

/** Human-readable "pc=0x.. addr=0x.. load" rendering for diagnostics. */
std::string to_string(const MemRef &ref);

} // namespace ltc

#endif // LTC_UTIL_TYPES_HH
