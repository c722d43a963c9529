/**
 * @file
 * Status / error reporting helpers, following the gem5 logging
 * conventions: panic() for internal invariant violations (simulator
 * bugs), fatal() for user-caused configuration errors, warn() and
 * inform() for non-fatal notices.
 */

#ifndef TPV_SIM_LOGGING_HH
#define TPV_SIM_LOGGING_HH

#include <sstream>
#include <string>

#include "obs/log.hh"

namespace tpv {

namespace detail {

/** Concatenate a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);

} // namespace detail

/**
 * Abort on a condition that should never happen regardless of user
 * input — i.e. a bug in tpv itself. Calls std::abort().
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Exit on a condition caused by invalid user configuration (bad
 * experiment parameters, impossible hardware configs). Calls exit(1).
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Report a suspicious-but-survivable condition through the obs log
 * layer (stderr by default). The level gate runs before any
 * formatting: a silenced level costs one load and no string work.
 */
template <typename... Args>
void
warn(Args &&...args)
{
    if (!obs::logEnabled(obs::LogLevel::Warn))
        return;
    obs::logWrite(obs::LogLevel::Warn,
                  detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status (obs log layer, level Info). */
template <typename... Args>
void
inform(Args &&...args)
{
    if (!obs::logEnabled(obs::LogLevel::Info))
        return;
    obs::logWrite(obs::LogLevel::Info,
                  detail::concat(std::forward<Args>(args)...));
}

/**
 * Debug diagnostics: level-gated at runtime and compiled out
 * entirely (arguments never evaluated) when TPV_NO_DEBUG_LOG is
 * defined — the compiled-out-cheap tier of the diagnostics door.
 */
#ifdef TPV_NO_DEBUG_LOG
#define TPV_DEBUG(...)                                                   \
    do {                                                                 \
    } while (0)
#else
#define TPV_DEBUG(...)                                                   \
    do {                                                                 \
        if (::tpv::obs::logEnabled(::tpv::obs::LogLevel::Debug)) {       \
            ::tpv::obs::logWrite(::tpv::obs::LogLevel::Debug,            \
                                 ::tpv::detail::concat(__VA_ARGS__));    \
        }                                                                \
    } while (0)
#endif

/** panic() unless the given invariant holds. */
#define TPV_ASSERT(cond, ...)                                            \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::tpv::panic("assertion failed: ", #cond, " ", __FILE__,     \
                         ":", __LINE__, " ", ##__VA_ARGS__);             \
        }                                                                \
    } while (0)

} // namespace tpv

#endif // TPV_SIM_LOGGING_HH
