/**
 * @file
 * Off-chip traffic accounting by category.
 *
 * Figure 12 of the paper breaks memory bus utilization into: base
 * data (demand cache-block transfers), incorrect predictions
 * (extraneous block transfers from mispredicted replacements),
 * sequence creation (writing signature sequences + confidence
 * updates) and sequence fetch (streaming signatures back on chip).
 * This accountant is shared by the trace and cycle engines. A fifth
 * class, writebacks of dirty victims, sits outside the paper's
 * decomposition and only accrues under the modelWritebacks knob
 * (cache/hierarchy.hh).
 */

#ifndef LTC_MEM_BANDWIDTH_HH
#define LTC_MEM_BANDWIDTH_HH

#include <array>
#include <cstdint>

#include "util/types.hh"

namespace ltc
{

/** Traffic categories of Figure 12. */
enum class Traffic : unsigned
{
    BaseData = 0,      //!< demand block transfers (incl. correct pf)
    IncorrectPrefetch, //!< blocks fetched due to mispredictions
    SequenceCreate,    //!< signature sequence writes + confidence upd.
    SequenceFetch,     //!< signature streaming reads
    Writeback,         //!< dirty victims (modelWritebacks only)
    NumClasses,
};

/** Byte counters per traffic class. */
class BandwidthAccount
{
  public:
    void
    add(Traffic traffic, std::uint64_t bytes)
    {
        counters_[static_cast<unsigned>(traffic)] += bytes;
    }

    std::uint64_t
    bytes(Traffic traffic) const
    {
        return counters_[static_cast<unsigned>(traffic)];
    }

    /** Bytes per committed instruction for one class. */
    double
    perInstruction(Traffic traffic, InstCount instructions) const
    {
        return instructions ? static_cast<double>(bytes(traffic)) /
                static_cast<double>(instructions)
                            : 0.0;
    }

  private:
    std::array<std::uint64_t,
               static_cast<unsigned>(Traffic::NumClasses)>
        counters_{};
};

} // namespace ltc

#endif // LTC_MEM_BANDWIDTH_HH
