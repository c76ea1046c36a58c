#include "base/debug.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>

namespace mtlbsim::debug
{

namespace
{

/** The MTLBSIM_DEBUG spelling of each Flag, in enumerator order. */
constexpr const char *kNames[] = {"Kernel", "MTLB"};

} // namespace

unsigned
parseFlags(const std::string &list)
{
    unsigned mask = 0;
    std::istringstream tokens(list);
    for (std::string token; std::getline(tokens, token, ',');) {
        if (token.empty())
            continue;
        if (token == "All") {
            mask |= (1u << std::size(kNames)) - 1;
            continue;
        }
        const auto it =
            std::find(std::begin(kNames), std::end(kNames), token);
        if (it == std::end(kNames)) {
            std::string known;
            for (const char *name : kNames)
                known += std::string(name) + ", ";
            warn("unknown debug flag '", token, "' (known: ", known,
                 "All)");
            continue;
        }
        mask |= 1u << (it - std::begin(kNames));
    }
    return mask;
}

namespace detail
{

unsigned
environmentFlags()
{
    // Debug-trace selection is allowed to read the environment: it
    // only toggles stderr logging, never simulated behaviour.
    const char *env = std::getenv("MTLBSIM_DEBUG"); // mtlb-lint: allow(R5)
    return env ? parseFlags(env) : 0;
}

void
emit(Flag flag, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", kNames[static_cast<unsigned>(flag)],
                 msg.c_str());
}

} // namespace detail

} // namespace mtlbsim::debug
