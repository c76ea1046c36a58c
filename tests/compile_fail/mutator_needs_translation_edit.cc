/**
 * @file
 * Compile-fail case: a mutator of translation state below the TLB
 * called without a TranslationEdit (1), with the hooks-only
 * MappingEdit (2), or a frame freed with the hooks-only edit (3).
 * Each would change what a cached translation names without retiring
 * it on any core, the stale-translation bug the paper's remap()
 * sequence (§2.4) exists to prevent. See expect_compile_error.cmake.
 */

#include "mmc/mmc.hh"
#include "os/address_space.hh"
#include "os/frame_alloc.hh"

using namespace mtlbsim;

void
swapOutOnePage(Mmc &mmc, AddressSpace &space, FrameAllocator &frames,
               TranslationEdit &edit, MappingEdit &hooks)
{
#if MTLBSIM_PLANT == 1
    mmc.invalidateShadowMapping(7);
#elif MTLBSIM_PLANT == 2
    mmc.invalidateShadowMapping(7, hooks);
#elif MTLBSIM_PLANT == 3
    frames.free(space.removeFrame(0x10000000, edit), hooks);
#else
    mmc.invalidateShadowMapping(7, edit);
    frames.free(space.removeFrame(0x10000000, edit), edit);
    space.installFrame(0x10000000, frames.allocate(), hooks);
#endif
}
