/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * fatal() reports a user error (bad configuration, invalid arguments)
 * and throws; panic() reports an internal invariant violation and
 * aborts.  Both take a pre-formatted message: jcache call sites build
 * messages with std::format-style concatenation at the call site, which
 * keeps this header dependency-free.
 */

#ifndef JCACHE_UTIL_LOGGING_HH
#define JCACHE_UTIL_LOGGING_HH

#include <stdexcept>
#include <string>

namespace jcache
{

/**
 * Exception thrown by fatal(): the simulation cannot continue because
 * of a condition that is the user's fault (bad configuration, invalid
 * arguments), not a simulator bug.
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/** Report a user error and throw FatalError. */
[[noreturn]] void fatal(const std::string& message);

/**
 * Report an internal invariant violation and abort.  Call when
 * something happens that should never happen regardless of what the
 * user does (an actual jcache bug).
 */
[[noreturn]] void panic(const std::string& message);

/** Throw FatalError with the message if the condition holds. */
inline void
fatalIf(bool condition, const std::string& message)
{
    if (condition)
        fatal(message);
}

/**
 * fatalIf() for a literal message: no std::string is built unless
 * the condition holds, so a check on a hot path costs one branch.
 */
inline void
fatalIf(bool condition, const char* message)
{
    if (condition)
        fatal(message);
}

} // namespace jcache

#endif // JCACHE_UTIL_LOGGING_HH
