/**
 * @file
 * Error and status reporting in the gem5 style.
 *
 * panic()  - an internal invariant was violated; this is a simulator
 *            bug. Aborts (core dump friendly).
 * fatal()  - the user asked for something impossible (bad
 *            configuration, invalid arguments). Exits with status 1.
 * warn()   - something is approximated or suspicious but simulation
 *            can continue.
 * inform() - status messages.
 */

#ifndef LTC_UTIL_LOGGING_HH
#define LTC_UTIL_LOGGING_HH

#include <sstream>
#include <string>

namespace ltc
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);
void informImpl(const std::string &msg);

namespace detail
{

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
format(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

} // namespace detail
} // namespace ltc

#define ltc_panic(...) \
    ::ltc::panicImpl(__FILE__, __LINE__, ::ltc::detail::format(__VA_ARGS__))

#define ltc_fatal(...) \
    ::ltc::fatalImpl(__FILE__, __LINE__, ::ltc::detail::format(__VA_ARGS__))

#define ltc_warn(...) \
    ::ltc::warnImpl(__FILE__, __LINE__, ::ltc::detail::format(__VA_ARGS__))

#define ltc_inform(...) \
    ::ltc::informImpl(::ltc::detail::format(__VA_ARGS__))

/** gem5-style assert that survives NDEBUG and reports context. */
#define ltc_assert(cond, ...)                                             \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::ltc::panicImpl(__FILE__, __LINE__,                          \
                ::ltc::detail::format("assertion '" #cond "' failed: ",   \
                                      ##__VA_ARGS__));                    \
        }                                                                 \
    } while (0)

#endif // LTC_UTIL_LOGGING_HH
