/**
 * @file
 * Main-memory latency model.
 *
 * Table 1: "200 cycles first 32B, 3 cycles each additional 32B" over a
 * 1GB (30-bit) space. The same DRAM stores the LT-cords sequence
 * frames; signature reads and writes use the same latency function.
 */

#ifndef LTC_MEM_DRAM_HH
#define LTC_MEM_DRAM_HH

#include <cstdint>

#include "util/types.hh"

namespace ltc
{

/** DRAM access-latency configuration. */
struct DramConfig
{
    Cycle firstChunkCycles = 200;
    Cycle nextChunkCycles = 3;
    std::uint32_t chunkBytes = 32;
    /** Physical space (checking only; 30-bit per Table 1). */
    std::uint32_t addressBits = 30;
};

/** Stateless latency calculator. */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &config = DramConfig{});

    /** Latency to deliver @p bytes (critical-word-first not modelled). */
    Cycle
    latency(std::uint32_t bytes) const
    {
        if (bytes == 0)
            return 0;
        const std::uint64_t chunks =
            (bytes + config_.chunkBytes - 1) / config_.chunkBytes;
        return config_.firstChunkCycles +
            (chunks - 1) * config_.nextChunkCycles;
    }

    const DramConfig &config() const { return config_; }

    /** LTC_CHECK the configuration/latency invariants (cold path). */
    void auditInvariants() const;

  private:
    DramConfig config_;
};

} // namespace ltc

#endif // LTC_MEM_DRAM_HH
