#include "os/frame_alloc.hh"

namespace mtlbsim
{

FrameAllocator::FrameAllocator(Addr first_pfn, Addr num_pfns,
                               std::uint64_t seed)
    : firstPfn_(first_pfn), numPfns_(num_pfns)
{
    fatalIf(num_pfns == 0, "frame allocator with no frames");
    freeList_.reserve(num_pfns);
    for (Addr i = 0; i < num_pfns; ++i)
        freeList_.push_back(first_pfn + i);

    // Fisher-Yates shuffle with the deterministic generator: frames
    // come out dispersed, never contiguous runs.
    Random rng(seed);
    for (Addr i = num_pfns - 1; i > 0; --i) {
        const Addr j = rng.below(i + 1);
        std::swap(freeList_[i], freeList_[j]);
    }
}

Addr
FrameAllocator::allocate()
{
    fatalIf(freeList_.empty(), "out of physical memory");
    const Addr pfn = freeList_.back();
    freeList_.pop_back();
    return pfn;
}

void
FrameAllocator::free(Addr pfn, TranslationEdit &)
{
    panicIf(pfn < firstPfn_ || pfn >= firstPfn_ + numPfns_,
            "freeing a frame outside the allocatable range: ", pfn);
    freeList_.push_back(pfn);
}

} // namespace mtlbsim
