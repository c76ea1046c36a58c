/**
 * @file
 * Real physical page-frame allocator.
 *
 * A central premise of the paper is that after any period of normal
 * operation, free physical frames are *dispersed* throughout memory
 * (§2.1) — which is exactly why conventional superpages (contiguous,
 * aligned) are so hard to build and why shadow-backed superpages from
 * discontiguous frames matter. To model that honestly, the allocator
 * hands out frames in a deterministically shuffled order rather than
 * sequentially, so no allocation ever receives naturally contiguous
 * frames.
 */

#pragma once

#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/types.hh"

namespace mtlbsim
{

class TranslationEdit;

/**
 * Allocator of 4 KB real physical frames.
 */
class FrameAllocator
{
  public:
    /**
     * @param first_pfn first allocatable frame (frames below this are
     *                  reserved for the kernel, HPT, shadow table)
     * @param num_pfns  number of allocatable frames
     * @param seed      shuffle seed (deterministic dispersal)
     */
    FrameAllocator(Addr first_pfn, Addr num_pfns,
                   std::uint64_t seed = 12345);

    /** Allocate one frame; returns its PFN. Fails fatally when
     *  memory is exhausted (the simulated machine has no swap device
     *  backing ordinary allocations). */
    Addr allocate();

    /** Return a frame to the free pool. The frame may be reused at
     *  once, so freeing it is a translation edit. */
    void free(Addr pfn, TranslationEdit &edit);

    Addr numFree() const { return freeList_.size(); }
    Addr numTotal() const { return numPfns_; }
    Addr firstPfn() const { return firstPfn_; }

    /** The current free list, for the invariant auditor (src/check).
     *  Order is allocation order; contents are what matters. */
    const std::vector<Addr> &auditFreeList() const { return freeList_; }

  private:
    Addr firstPfn_;
    Addr numPfns_;
    std::vector<Addr> freeList_;
};

} // namespace mtlbsim
