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
 *
 * The shuffle is a Fisher-Yates pass over the free list, performed
 * lazily: step i runs at the allocation that first takes position i,
 * with the same draw, in the same order, as an eager pass at
 * construction would make. Every allocation returns the frame the
 * eager pass would give it, and a machine that maps a few thousand
 * pages does not pay for shuffling the whole of memory. Nor does it
 * pay for writing the identity list the shuffle starts from: a
 * position the shuffle and the frees have not written still holds
 * its initial frame, implicitly.
 */

#pragma once

#include <memory>
#include <vector>

#include "base/bitset.hh"
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
     *  once, so freeing it is a translation edit. Freeing a frame
     *  outside the pool, or one that is already free, panics: the
     *  free pool never holds a frame twice. */
    void free(Addr pfn, TranslationEdit &edit);

    Addr numFree() const { return numFree_; }
    Addr numTotal() const { return numPfns_; }
    Addr firstPfn() const { return firstPfn_; }

    /** Is @p pfn, a frame of the pool, free? */
    bool
    isFree(Addr pfn) const
    {
        return freeBits_.test(static_cast<std::size_t>(pfn - firstPfn_));
    }

    /** The free list as the eager shuffle would hold it, the next
     *  frame to be allocated last: the pending shuffle steps are
     *  finished on a copy. O(frames); for the model checker, whose
     *  state includes the allocation order. */
    std::vector<Addr> allocationOrder() const;

  private:
    /** Perform shuffle step i on @p list with @p rng (no draw at
     *  i = 0, as the eager loop makes none). */
    static void shuffleStep(std::vector<Addr> &list, Addr i, Random &rng);

    /** The frame at free-list position @p k. */
    Addr
    at(Addr k) const
    {
        return written_.test(static_cast<std::size_t>(k)) ? freeList_[k]
                                                           : firstPfn_ + k;
    }

    /** Store @p pfn at free-list position @p k. */
    void
    put(Addr k, Addr pfn)
    {
        freeList_[k] = pfn;
        written_.set(static_cast<std::size_t>(k));
    }

    Addr firstPfn_;
    Addr numPfns_;
    /** The free list, a stack of numFree_ frames; the next frame to
     *  allocate is on top. Position k holds freeList_[k] once written
     *  (bit k of written_), else its initial frame firstPfn_ + k.
     *  Positions at and above unshuffled_ are final; below it the
     *  shuffle steps unshuffled_ - 1 down to 1 are still to run. */
    std::unique_ptr<Addr[]> freeList_;
    Bitset written_;
    Addr numFree_;
    Addr unshuffled_;
    Random rng_;
    /** Bit pfn - firstPfn_ set exactly when the frame is free. */
    Bitset freeBits_;
};

} // namespace mtlbsim
