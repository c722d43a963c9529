/**
 * @file
 * The diagnostics front door: a process-wide, level-gated log switch
 * that every textual diagnostic in the tree routes through.
 *
 * sim/logging.hh's warn()/inform() templates and TPV_DEBUG check
 * logEnabled() *before* formatting and then call logWrite() directly,
 * so a silenced level costs one relaxed load and no string work;
 * panic()/fatal() bypass this layer and always print (they are about
 * to abort). The sink is replaceable for tests and for embedding runs
 * that want diagnostics somewhere other than stderr; the default sink
 * reproduces the historical "warn: ...\n" / "info: ...\n" stderr
 * output byte for byte.
 */

#ifndef TPV_OBS_LOG_HH
#define TPV_OBS_LOG_HH

#include <functional>
#include <string>

namespace tpv {
namespace obs {

/** Diagnostic verbosity, ordered: a level admits itself and below. */
enum class LogLevel : int
{
    Silent = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** @return level name ("warn", "info", "debug"). */
const char *toString(LogLevel level);

/** Current process-wide verbosity (default Info, matching the
 *  historical always-on warn/inform behaviour). */
LogLevel logLevel();

/** Set the process-wide verbosity. */
void setLogLevel(LogLevel level);

/** Would a message at @p level be emitted? The cheap pre-format
 *  gate the logging templates check. */
bool logEnabled(LogLevel level);

/**
 * Replace the output sink (nullptr restores the stderr default).
 * The sink receives the already-formatted message without a trailing
 * newline; it is called only for enabled levels.
 */
void setLogSink(std::function<void(LogLevel, const std::string &)> sink);

/** Emit @p msg at @p level through the sink, if the level is on. */
void logWrite(LogLevel level, const std::string &msg);

} // namespace obs
} // namespace tpv

#endif // TPV_OBS_LOG_HH
