#include "cache/cache_config.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace ltc
{

const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::LRU:
        return "LRU";
      case ReplPolicy::FIFO:
        return "FIFO";
      case ReplPolicy::Random:
        return "Random";
      case ReplPolicy::RRIP:
        return "RRIP";
      case ReplPolicy::DRRIP:
        return "DRRIP";
      case ReplPolicy::SHiP:
        return "SHiP";
      case ReplPolicy::DeadBlock:
        return "DeadBlock";
    }
    return "?";
}

void
CacheConfig::validate() const
{
    if (!isPowerOf2(lineBytes))
        ltc_fatal(name, ": line size must be a power of two, got ",
                  lineBytes);
    if (sizeBytes == 0 || sizeBytes % lineBytes != 0)
        ltc_fatal(name, ": size must be a multiple of the line size");
    if (assoc == 0 || numLines() % assoc != 0)
        ltc_fatal(name, ": associativity must divide the line count");
    if (!isPowerOf2(numSets()))
        ltc_fatal(name, ": set count must be a power of two, got ",
                  numSets());
}

CacheConfig
CacheConfig::l1d()
{
    CacheConfig c;
    c.name = "L1D";
    c.sizeBytes = 64 * 1024;
    c.assoc = 2;
    c.lineBytes = 64;
    c.latency = 2;
    return c;
}

CacheConfig
CacheConfig::l2()
{
    CacheConfig c;
    c.name = "L2";
    c.sizeBytes = 1024 * 1024;
    c.assoc = 8;
    c.lineBytes = 64;
    c.latency = 20;
    return c;
}

} // namespace ltc
