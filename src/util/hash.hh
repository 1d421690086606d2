/**
 * @file
 * Hash functions for last-touch history traces and signatures.
 *
 * DBCP and LT-cords both compress an unbounded PC trace into a
 * fixed-width "history trace hash" by folding each committed PC into a
 * running value (the "truncated addition followed by rotation" family
 * used by the DBCP paper). Signature construction then mixes the trace
 * hash with cache tags. All hashes here are deterministic and
 * platform-independent so traces and experiment results are
 * reproducible bit-for-bit.
 */

#ifndef LTC_UTIL_HASH_HH
#define LTC_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>

namespace ltc
{

/**
 * FNV-1a 32-bit hash of a byte range; the per-chunk payload checksum
 * of the .ltct v2 trace container (trace/trace_io.hh). Chosen for
 * being trivially portable and dependency-free rather than for error
 * models: it reliably flags the truncation/bit-rot cases the trace
 * reader defends against.
 */
inline std::uint32_t
fnv1a32(const unsigned char *data, std::size_t len)
{
    std::uint32_t h = 2166136261u;
    for (std::size_t i = 0; i < len; i++) {
        h ^= data[i];
        h *= 16777619u;
    }
    return h;
}

/**
 * FNV-1a 64-bit hash of a byte range, resumable: pass the previous
 * return value as @p h to fold further blocks into a running digest
 * (the experiment fabric hashes canonicalized cell keys and whole
 * .ltct containers this way, sim/cell_store.hh). Like fnv1a32 it is
 * chosen for portability and determinism, not cryptography: cache
 * records it guards are integrity-checked, not authenticated.
 */
inline std::uint64_t
fnv1a64(const unsigned char *data, std::size_t len,
        std::uint64_t h = 14695981039346656037ULL)
{
    for (std::size_t i = 0; i < len; i++) {
        h ^= data[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/** Finalizer from MurmurHash3; a cheap full-avalanche 64-bit mixer. */
constexpr std::uint64_t
mix64(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

/** Combine two 64-bit values (boost::hash_combine style, 64-bit). */
constexpr std::uint64_t
hashCombine(std::uint64_t seed, std::uint64_t v)
{
    return seed ^ (mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                   (seed >> 2));
}

/**
 * Incremental last-touch history trace hash.
 *
 * Each committed memory instruction's PC is folded into the running
 * trace encoding; the encoding is reset on every eviction from the
 * history table entry's set (Section 4.1). Rotate-then-xor keeps the
 * hash order-sensitive, which DBCP requires: {PCi, PCj} and
 * {PCj, PCi} are distinct traces.
 */
class TraceHash
{
  public:
    /** Fold one PC into the running trace encoding. */
    void
    update(std::uint64_t pc)
    {
        std::uint64_t v = value_;
        v = (v << 7) | (v >> 57); // rotl 7
        v ^= mix64(pc);
        value_ = v;
    }

    /** Reset on set eviction. */
    void clear() { value_ = 0; }

    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

} // namespace ltc

#endif // LTC_UTIL_HASH_HH
