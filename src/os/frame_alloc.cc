#include "os/frame_alloc.hh"

namespace mtlbsim
{

namespace
{

/** @p num_pfns, checked before any member is sized by it. */
Addr
checkedFrameCount(Addr num_pfns)
{
    fatalIf(num_pfns == 0, "frame allocator with no frames");
    return num_pfns;
}

} // namespace

FrameAllocator::FrameAllocator(Addr first_pfn, Addr num_pfns,
                               std::uint64_t seed)
    : firstPfn_(first_pfn), numPfns_(checkedFrameCount(num_pfns)),
      freeList_(std::make_unique_for_overwrite<Addr[]>(num_pfns)),
      written_(static_cast<std::size_t>(num_pfns)), numFree_(num_pfns),
      unshuffled_(num_pfns), rng_(seed),
      freeBits_(static_cast<std::size_t>(num_pfns), true)
{}

void
FrameAllocator::shuffleStep(std::vector<Addr> &list, Addr i, Random &rng)
{
    // Fisher-Yates with the deterministic generator: frames come out
    // dispersed, never contiguous runs.
    if (i > 0)
        std::swap(list[i], list[rng.below(i + 1)]);
}

Addr
FrameAllocator::allocate()
{
    fatalIf(numFree_ == 0, "out of physical memory");
    // Frees only append at or above unshuffled_, so the back is
    // either final or the next position the shuffle reaches.
    const Addr back = --numFree_;
    Addr pfn = at(back);
    if (back < unshuffled_) {
        // shuffleStep(back), leaving the popped position unwritten.
        if (back > 0) {
            const Addr other = rng_.below(back + 1);
            const Addr swapped = at(other);
            put(other, pfn);
            pfn = swapped;
        }
        unshuffled_ = back;
    }
    freeBits_.reset(static_cast<std::size_t>(pfn - firstPfn_));
    return pfn;
}

void
FrameAllocator::free(Addr pfn, TranslationEdit &)
{
    panicIf(pfn < firstPfn_ || pfn >= firstPfn_ + numPfns_,
            "freeing a frame outside the allocatable range: ", pfn);
    panicIf(isFree(pfn), "freeing frame ", pfn, ", which is already free");
    put(numFree_++, pfn);
    freeBits_.set(static_cast<std::size_t>(pfn - firstPfn_));
}

std::vector<Addr>
FrameAllocator::allocationOrder() const
{
    std::vector<Addr> list(numFree_);
    for (Addr k = 0; k < numFree_; ++k)
        list[k] = at(k);
    Random rng = rng_;
    for (Addr i = unshuffled_; i-- > 1;)
        shuffleStep(list, i, rng);
    return list;
}

} // namespace mtlbsim
