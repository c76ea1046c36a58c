#include "base/logging.hh"

#include <cstdio>

namespace mtlbsim
{

void
setInformEnabled(bool)
{
}

namespace detail
{

void
emitLog(const char *level, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", level, msg.c_str());
}

} // namespace detail

} // namespace mtlbsim
