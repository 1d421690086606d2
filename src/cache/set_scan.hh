/**
 * @file
 * Vectorized set-scan kernels for the packed 8-byte tag words.
 *
 * Each cache set's tag words are contiguous (structure-of-arrays,
 * cache/cache.hh), so an 8-way set spans exactly one host cache line.
 * The per-reference lookup and victim scans reduce to one primitive:
 * "which ways w satisfy (words[w] & select) == want" as a bitmask.
 * With AVX2 that is a broadcast, a vector AND, a vector compare and a
 * movemask per 4 ways. The first matching way is then a trailing-zero
 * count.
 *
 * Two kernels exist: a portable one, always compiled, and the AVX2
 * one, compiled when the build targets AVX2 (CMake adds -mavx2 unless
 * LTC_SIMD=OFF). The dispatching wrapper `maskedEqBits` picks AVX2
 * when it is compiled in, the portable variant stays callable for the
 * `micro_structures` SIMD-vs-portable benchmark, and `-DLTC_SIMD=OFF`
 * (which defines LTC_FORCE_PORTABLE_SCAN) forces the portable kernel
 * everywhere so CI can pin that both produce byte-identical
 * simulations.
 *
 * Equivalence argument (pinned by tests/cache_test.cc): a set holds
 * each block at most once, so the match mask has at most one bit and
 * any scan order returns the same way; the invalid-way scan takes the
 * lowest set bit, exactly the scalar loop's first-invalid choice.
 */

#ifndef LTC_CACHE_SET_SCAN_HH
#define LTC_CACHE_SET_SCAN_HH

#include <cstdint>

#if defined(__AVX2__) && !defined(LTC_FORCE_PORTABLE_SCAN)
#define LTC_SET_SCAN_AVX2 1
#include <immintrin.h>
#else
#define LTC_SET_SCAN_AVX2 0
#endif

namespace ltc
{

// LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
// operator and virtual declarations between these markers.

/** True when maskedEqBits resolves to a SIMD kernel for 8-way sets. */
inline constexpr bool simdSetScan = LTC_SET_SCAN_AVX2 != 0;

/**
 * Portable kernel: bit w of the result is set iff
 * (words[w] & select) == want. @tparam Assoc fixed trip count so the
 * compiler fully unrolls (and often auto-vectorizes) the loop.
 */
template <std::uint32_t Assoc>
inline std::uint32_t
maskedEqBitsPortable(const std::uint64_t *words, std::uint64_t select,
                     std::uint64_t want)
{
    static_assert(Assoc >= 1 && Assoc <= 32, "unsupported set width");
    std::uint32_t bits = 0;
    for (std::uint32_t w = 0; w < Assoc; w++)
        bits |= ((words[w] & select) == want ? 1u : 0u) << w;
    return bits;
}

#if LTC_SET_SCAN_AVX2

/** AVX2 kernel: AND + compare + movemask per 4 ways. */
template <std::uint32_t Assoc>
inline std::uint32_t
maskedEqBitsSimd(const std::uint64_t *words, std::uint64_t select,
                 std::uint64_t want)
{
    static_assert(Assoc >= 4 && Assoc <= 32 && (Assoc & 3u) == 0,
                  "AVX2 scan handles multiples of 4 ways");
    const __m256i sel = _mm256_set1_epi64x(
        static_cast<long long>(select));
    const __m256i wt = _mm256_set1_epi64x(static_cast<long long>(want));
    std::uint32_t bits = 0;
    for (std::uint32_t g = 0; g < Assoc / 4; g++) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(words + 4 * g));
        const __m256i eq =
            _mm256_cmpeq_epi64(_mm256_and_si256(v, sel), wt);
        const int m = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
        bits |= static_cast<std::uint32_t>(m) << (4 * g);
    }
    return bits;
}

#endif // LTC_SET_SCAN_AVX2

/**
 * Kernel for the engines' static-associativity instantiations: AVX2
 * when compiled in and the width is a multiple of its 4 lanes,
 * otherwise the portable unrolled scan. Semantically identical either
 * way (see the file comment).
 */
template <std::uint32_t Assoc>
inline std::uint32_t
maskedEqBits(const std::uint64_t *words, std::uint64_t select,
             std::uint64_t want)
{
#if LTC_SET_SCAN_AVX2
    if constexpr (Assoc >= 4 && Assoc <= 32 && (Assoc & 3u) == 0)
        return maskedEqBitsSimd<Assoc>(words, select, want);
    else
        return maskedEqBitsPortable<Assoc>(words, select, want);
#else
    return maskedEqBitsPortable<Assoc>(words, select, want);
#endif
}

/** First set bit of a non-zero way mask (lowest matching way). */
inline std::uint32_t
firstWay(std::uint32_t bits)
{
    return static_cast<std::uint32_t>(__builtin_ctz(bits));
}

// LTC_HOT_END

} // namespace ltc

#endif // LTC_CACHE_SET_SCAN_HH
