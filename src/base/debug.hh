/**
 * @file
 * Debug trace flags and trace printing (gem5's DPRINTF, miniature).
 *
 * Components print through debugPrintf(flag, ...); a line appears on
 * stderr, as `<flag>: <msg>`, only when the flag is selected by the
 * MTLBSIM_DEBUG environment variable:
 *
 *     MTLBSIM_DEBUG=MTLB,Kernel build/examples/run_workload em3d 0.01
 *     ...
 *     debugPrintf(debug::Flag::Mtlb, "fill spi=", spi, " pfn=", pfn);
 *
 * The variable is read once, on the first check, into an immutable
 * mask, so every program honours it without an init call and every
 * System (sweep workers' included) sees the same selection. An
 * unselected flag costs a test of that mask; the message is never
 * assembled.
 */

#pragma once

#include <string>

#include "base/logging.hh"

namespace mtlbsim::debug
{

/** The trace flags, named `Kernel` and `MTLB` in MTLBSIM_DEBUG. */
enum class Flag : unsigned
{
    Kernel,
    Mtlb,
};

/** The mask bit of @p flag. */
constexpr unsigned
bit(Flag flag)
{
    return 1u << static_cast<unsigned>(flag);
}

/**
 * The mask a comma-separated flag list selects, e.g. "MTLB,Kernel";
 * "All" selects every flag. An unknown name warns, naming itself and
 * the known names, and selects nothing.
 */
unsigned parseFlags(const std::string &list);

namespace detail
{
/** parseFlags() of MTLBSIM_DEBUG; 0 when it is unset. */
unsigned environmentFlags();
void emit(Flag flag, const std::string &msg);
} // namespace detail

/** Whether MTLBSIM_DEBUG selects @p flag. */
inline bool
enabled(Flag flag)
{
    static const unsigned selected = detail::environmentFlags();
    return selected & bit(flag);
}

} // namespace mtlbsim::debug

namespace mtlbsim
{

/** Print a trace line when @p flag is enabled. */
template <typename... Args>
void
debugPrintf(debug::Flag flag, Args &&...args)
{
    if (!debug::enabled(flag))
        return;
    debug::detail::emit(
        flag, detail::buildMessage(std::forward<Args>(args)...));
}

} // namespace mtlbsim
