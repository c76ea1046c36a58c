/**
 * @file
 * Compile-fail case: the fault injector outside a test build.
 * Including check/fault_injector.hh without MTLBSIM_CHECK_TESTING (1)
 * must not compile, so no ordinary program can plant corruption.
 * See expect_compile_error.cmake.
 */

#if MTLBSIM_PLANT != 1
#define MTLBSIM_CHECK_TESTING
#endif

#include "check/fault_injector.hh"

using namespace mtlbsim;

Addr
leak(System &sys)
{
    return FaultInjector::leakFrame(sys);
}
