/**
 * @file
 * Compile-fail case: an AddressSpace mutator called without an edit,
 * so its KernelObserver hook cannot fire: installFrame (1, no
 * onPageMapped), addSuperpage (2, no onSuperpageCreated) and
 * removeSuperpage (3, no onSuperpageDemoted). The differential
 * fuzzer's oracle is rebuilt from those events alone. See
 * expect_compile_error.cmake.
 */

#include "os/address_space.hh"

using namespace mtlbsim;

void
materialise(AddressSpace &space, MappingEdit &hooks)
{
#if MTLBSIM_PLANT == 1
    space.installFrame(0x10000000, 0x2000);
#elif MTLBSIM_PLANT == 2
    space.addSuperpage({0x10000000, 0x80000000, 1});
#elif MTLBSIM_PLANT == 3
    space.removeSuperpage(0x10000000);
#else
    space.installFrame(0x10000000, 0x2000, hooks);
    space.addSuperpage({0x10000000, 0x80000000, 1}, hooks);
    space.removeSuperpage(0x10000000, hooks);
#endif
}
