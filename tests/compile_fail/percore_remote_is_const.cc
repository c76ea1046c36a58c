/**
 * @file
 * Compile-fail case: mutable access to a non-active core's record
 * through PerCore — by subscript (1), by range-for (2), or through
 * the read-only at() view, purging a remote TLB (3) or charging a
 * remote core an IPI (4). Only the active core and the shootdown
 * broadcast may change a core's translation state. See
 * expect_compile_error.cmake.
 */

#include <cstdint>

#include "os/kernel.hh"

using namespace mtlbsim;

std::uint64_t
poke(PerCore<Kernel::CoreCtx> &cores)
{
#if MTLBSIM_PLANT == 1
    cores[1].tlb().purgeAll();
#elif MTLBSIM_PLANT == 2
    for (Kernel::CoreCtx &core : cores)
        core.tlb().purgeAll();
#elif MTLBSIM_PLANT == 3
    cores.at(1).tlb().purgeAll();
#elif MTLBSIM_PLANT == 4
    cores.at(1).takeIpi(300);
#else
    cores.active().tlb().purgeAll();
    cores.broadcast([](Kernel::CoreCtx &core, bool remote) {
        if (remote)
            core.takeIpi(300);
    });
#endif
    return cores.at(1).tlb().misses() + cores.at(1).shootdownsReceived();
}
