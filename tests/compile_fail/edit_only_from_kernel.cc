/**
 * @file
 * Compile-fail case: an edit opened outside Kernel. Opening a
 * TranslationEdit (1) or a MappingEdit (2) directly, copying an open
 * edit so it outlives its kernel call (3), or asking for a detached
 * edit without MTLBSIM_CHECK_TESTING (4) must not compile: outside
 * Kernel, only test builds get an edit, and theirs neither
 * invalidates nor notifies. See expect_compile_error.cmake.
 */

#if MTLBSIM_PLANT != 4
#define MTLBSIM_CHECK_TESTING
#endif

#include "os/kernel.hh"

using namespace mtlbsim;

void
plantFrame(Kernel &kernel, TranslationEdit &open)
{
    AddressSpace &space = kernel.addressSpace();
#if MTLBSIM_PLANT == 1
    TranslationEdit edit(kernel, 0x10000000, basePageSize, false);
#elif MTLBSIM_PLANT == 2
    MappingEdit edit(nullptr);
#elif MTLBSIM_PLANT == 3
    TranslationEdit edit = open;
#else
    TranslationEdit edit = detachedEdit();
    (void)open;
#endif
    space.installFrame(0x10000000, kernel.frames().allocate(), edit);
}
