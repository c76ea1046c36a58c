/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for simulator bugs (things
 * that should never happen regardless of user input) and aborts;
 * fatal() is for user errors (bad configuration, invalid arguments)
 * and exits cleanly with an error code; warn() reports conditions
 * without stopping the simulation.
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace mtlbsim
{

/** Exception thrown by panic(); carries the formatted message. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Exception thrown by fatal(); carries the formatted message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail
{

/** Build a single message string from a parameter pack. */
template <typename... Args>
std::string
buildMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

void emitLog(const char *level, const std::string &msg);

} // namespace detail

/**
 * Report an internal simulator bug and abort via exception.
 *
 * Throws PanicError rather than calling abort() so that tests can
 * assert on invariant violations without killing the process.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::string msg = detail::buildMessage(std::forward<Args>(args)...);
    detail::emitLog("panic", msg);
    throw PanicError(msg);
}

/**
 * Report an unrecoverable user error (bad config, invalid argument).
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::string msg = detail::buildMessage(std::forward<Args>(args)...);
    detail::emitLog("fatal", msg);
    throw FatalError(msg);
}

/** Warn about suspicious but non-fatal conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emitLog("warn", detail::buildMessage(std::forward<Args>(args)...));
}

/** A no-op, kept only because perfbench/main.cc still calls it. */
void setInformEnabled(bool enabled);

/**
 * Assert a simulator invariant; panics with the message on failure.
 */
template <typename... Args>
void
panicIf(bool condition, Args &&...args)
{
    if (condition)
        panic(std::forward<Args>(args)...);
}

/** Fail with fatal() when a user-facing precondition is violated. */
template <typename... Args>
void
fatalIf(bool condition, Args &&...args)
{
    if (condition)
        fatal(std::forward<Args>(args)...);
}

/**
 * Run a command-line program's @p body and return its exit status.
 * A FatalError or PanicError escaping it is printed as
 * "<program>: <message>" on stderr and @p error_status returned, so
 * bad input ends the program with an error, never with an uncaught
 * exception.
 */
template <typename Body>
int
runMain(const char *program, int error_status, Body &&body)
{
    try {
        return body();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", program, e.what());
    } catch (const PanicError &e) {
        std::fprintf(stderr, "%s: %s\n", program, e.what());
    }
    return error_status;
}

} // namespace mtlbsim
