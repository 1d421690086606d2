/**
 * @file
 * Out-of-order core configuration (Table 1 of the paper).
 */

#ifndef LTC_CPU_CORE_CONFIG_HH
#define LTC_CPU_CORE_CONFIG_HH

#include <cstdint>

namespace ltc
{

/** Core parameters used by the window timing model. */
struct CoreConfig
{
    /** Issue/retire width, instructions per cycle. */
    std::uint32_t width = 8;
    /** Reorder buffer entries. */
    std::uint32_t robSize = 256;
    /** Load/store queue entries. */
    std::uint32_t lsqSize = 128;
    /** L1D MSHRs (outstanding primary misses). */
    std::uint32_t l1dMshrs = 64;
};

} // namespace ltc

#endif // LTC_CPU_CORE_CONFIG_HH
