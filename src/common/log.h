/**
 * @file
 * gem5-style status/error reporting: panic() for internal invariant
 * violations, fatal() for unrecoverable user/configuration errors,
 * warn() for advisories. All are printf-style free functions.
 */

#ifndef CITADEL_COMMON_LOG_H
#define CITADEL_COMMON_LOG_H

#include <cstdarg>

namespace citadel {

/**
 * Report an internal simulator bug and abort(). Use for conditions that
 * can never happen regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user-facing error (bad configuration, invalid
 * arguments) and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Advisory: something is approximated or suspicious but survivable. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace citadel

#endif // CITADEL_COMMON_LOG_H
