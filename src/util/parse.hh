/**
 * @file
 * The one parser of counts read from the environment or a command
 * line (LTC_REFS, LTC_JOBS, --refs, --limit, ...).
 */

#ifndef LTC_UTIL_PARSE_HH
#define LTC_UTIL_PARSE_HH

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>

#include "util/logging.hh"

namespace ltc
{

/** The multipliers a count accepts after its digits. */
enum class CountSuffix
{
    None, //!< digits only
    Kmg,  //!< one optional k, m or g (either case): 10^3, 10^6, 10^9
};

/**
 * Parse @p text, the value of the knob @p knob (an environment
 * variable or a flag), as a count in [@p min, @p max]: decimal digits
 * only (no sign, space or base prefix), then the multiplier @p suffix
 * allows. Malformed text, a value past 64 bits and one outside the
 * range are fatal: the process exits 1 with a message that names
 * @p knob.
 */
inline std::uint64_t
parseCount(const char *knob, const std::string &text, std::uint64_t min,
           std::uint64_t max, CountSuffix suffix)
{
    const char *const end = text.data() + text.size();
    std::uint64_t value = 0;
    const auto [rest, errc] = std::from_chars(text.data(), end, value);
    bool ok = errc == std::errc{};
    if (rest != end) {
        std::uint64_t scale = 0;
        if (suffix == CountSuffix::Kmg && rest + 1 == end) {
            switch (*rest) {
              case 'k': case 'K': scale = 1'000; break;
              case 'm': case 'M': scale = 1'000'000; break;
              case 'g': case 'G': scale = 1'000'000'000; break;
              default: break;
            }
        }
        ok = ok && scale != 0 &&
            value <= std::numeric_limits<std::uint64_t>::max() / scale;
        value *= scale;
    }
    if (!ok || value < min || value > max)
        ltc_fatal(knob, " must be a decimal count",
                  suffix == CountSuffix::Kmg ? " (k/m/g suffix optional)"
                                             : "",
                  " in [", min, ", ", max, "], got '", text, "'");
    return value;
}

} // namespace ltc

#endif // LTC_UTIL_PARSE_HH
