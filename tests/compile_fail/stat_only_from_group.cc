/**
 * @file
 * Compile-fail case: a statistic held outside the stats tree. A
 * component's counter must come from StatGroup::add*, which registers
 * it, or it never reaches the dump, the JSON or the goldens. Each
 * plant tries to hold one that was never registered: an orphan member
 * (1), a direct construction (2), a make_unique outside StatGroup
 * (3), and a copy of a registered statistic (4). See
 * expect_compile_error.cmake.
 */

#include <memory>

#include "stats/stats.hh"

using namespace mtlbsim;

struct Component
{
    explicit Component(stats::StatGroup &g)
        : hits_(g.addScalar("hits", "registered")),
          latency_(g.addAverage("latency", "registered"))
    {}

    stats::Scalar &hits_;
    stats::Average &latency_;
#if MTLBSIM_PLANT == 1
    stats::Scalar orphan_{"orphan", "never registered"};
#endif
};

void
count(stats::StatGroup &g)
{
    Component c(g);
    ++c.hits_;
    c.latency_.sample(2.0);
#if MTLBSIM_PLANT == 2
    stats::Average local(stats::StatKey{}, "local", "never registered");
    local.sample(1.0);
#elif MTLBSIM_PLANT == 3
    auto owned = std::make_unique<stats::Scalar>(stats::StatKey{},
                                                 "owned", "unregistered");
    ++*owned;
#elif MTLBSIM_PLANT == 4
    stats::Scalar copy = c.hits_;
    ++copy;
#endif
}
