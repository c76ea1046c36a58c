/**
 * @file
 * Unit tests for the dispersing physical frame allocator.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/random.hh"
#include "os/frame_alloc.hh"
#include "os/translation_edit.hh"

using namespace mtlbsim;

namespace
{
/** Frees outside a kernel; a detached edit has no state, so every
 *  test shares this one. */
TranslationEdit edit = detachedEdit();

/** The allocator as it was with the whole Fisher-Yates shuffle run
 *  in its constructor: the reference for the lazy shuffle. */
class EagerFrames
{
  public:
    EagerFrames(Addr first_pfn, Addr num_pfns, std::uint64_t seed)
    {
        for (Addr i = 0; i < num_pfns; ++i)
            list_.push_back(first_pfn + i);
        Random rng(seed);
        for (Addr i = num_pfns - 1; i > 0; --i) {
            const Addr j = rng.below(i + 1);
            std::swap(list_[i], list_[j]);
        }
    }

    Addr
    allocate()
    {
        const Addr pfn = list_.back();
        list_.pop_back();
        return pfn;
    }

    void free(Addr pfn) { list_.push_back(pfn); }

    const std::vector<Addr> &list() const { return list_; }

  private:
    std::vector<Addr> list_;
};
}

TEST(FrameAllocTest, AllocatesUniqueFramesInRange)
{
    FrameAllocator alloc(100, 50);
    std::set<Addr> seen;
    for (int i = 0; i < 50; ++i) {
        const Addr pfn = alloc.allocate();
        EXPECT_GE(pfn, 100u);
        EXPECT_LT(pfn, 150u);
        EXPECT_TRUE(seen.insert(pfn).second) << "duplicate frame";
    }
}

TEST(FrameAllocTest, ExhaustionIsFatal)
{
    FrameAllocator alloc(0, 2);
    alloc.allocate();
    alloc.allocate();
    EXPECT_THROW(alloc.allocate(), FatalError);
}

TEST(FrameAllocTest, FreeRecycles)
{
    FrameAllocator alloc(0, 1);
    const Addr pfn = alloc.allocate();
    EXPECT_EQ(alloc.numFree(), 0u);
    alloc.free(pfn, edit);
    EXPECT_EQ(alloc.numFree(), 1u);
    EXPECT_EQ(alloc.allocate(), pfn);
}

TEST(FrameAllocTest, FreeOutOfRangePanics)
{
    FrameAllocator alloc(100, 10);
    EXPECT_THROW(alloc.free(99, edit), PanicError);
    EXPECT_THROW(alloc.free(110, edit), PanicError);
}

TEST(FrameAllocTest, DoubleFreePanics)
{
    FrameAllocator alloc(100, 10);
    const Addr pfn = alloc.allocate();
    alloc.free(pfn, edit);
    EXPECT_THROW(alloc.free(pfn, edit), PanicError);
    // A frame never allocated is free from the start.
    const Addr other = pfn == 100 ? 101 : 100;
    EXPECT_THROW(alloc.free(other, edit), PanicError);
    EXPECT_EQ(alloc.numFree(), 10u);
}

TEST(FrameAllocTest, FreeBitsTrackAllocations)
{
    FrameAllocator alloc(100, 70);
    for (Addr pfn = 100; pfn < 170; ++pfn)
        EXPECT_TRUE(alloc.isFree(pfn));
    const Addr pfn = alloc.allocate();
    EXPECT_FALSE(alloc.isFree(pfn));
    alloc.free(pfn, edit);
    EXPECT_TRUE(alloc.isFree(pfn));
}

TEST(FrameAllocTest, LazyShuffleAllocatesLikeTheEagerOne)
{
    // Over several seeds, with frees interleaved among allocations,
    // every allocation returns the frame the eager shuffle gives and
    // allocationOrder() is the eager free list.
    for (const std::uint64_t seed : {1u, 7u, 12345u, 99991u}) {
        FrameAllocator lazy(300, 517, seed);
        EagerFrames eager(300, 517, seed);
        Random driver(seed + 1);
        std::vector<Addr> held;
        for (int step = 0; step < 3000; ++step) {
            if (lazy.numFree() > 0 && (held.empty() ||
                                       driver.chance(3, 5))) {
                const Addr pfn = lazy.allocate();
                ASSERT_EQ(pfn, eager.allocate()) << "seed " << seed
                                                 << " step " << step;
                held.push_back(pfn);
            } else {
                const std::size_t i = driver.below(held.size());
                lazy.free(held[i], edit);
                eager.free(held[i]);
                held[i] = held.back();
                held.pop_back();
            }
            if (step % 250 == 0) {
                ASSERT_EQ(lazy.allocationOrder(), eager.list());
            }
        }
        EXPECT_EQ(lazy.numFree(), eager.list().size());
        EXPECT_EQ(lazy.allocationOrder(), eager.list());
    }
}

TEST(FrameAllocTest, FramesAreDispersed)
{
    // The paper's premise (§2.1): frames handed out over time are
    // not contiguous. Count adjacent-PFN pairs in allocation order;
    // with a genuine shuffle of 4096 frames this is tiny.
    FrameAllocator alloc(0, 4096);
    Addr prev = alloc.allocate();
    unsigned adjacent = 0;
    for (int i = 1; i < 4096; ++i) {
        const Addr pfn = alloc.allocate();
        if (pfn == prev + 1)
            ++adjacent;
        prev = pfn;
    }
    EXPECT_LT(adjacent, 40u);
}

TEST(FrameAllocTest, DeterministicForFixedSeed)
{
    FrameAllocator a(0, 64, 7), b(0, 64, 7);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.allocate(), b.allocate());
}

TEST(FrameAllocTest, DifferentSeedsDisperseDifferently)
{
    FrameAllocator a(0, 64, 7), b(0, 64, 8);
    bool differs = false;
    for (int i = 0; i < 64; ++i)
        differs |= a.allocate() != b.allocate();
    EXPECT_TRUE(differs);
}

TEST(FrameAllocTest, ZeroFramesIsFatal)
{
    EXPECT_THROW(FrameAllocator(0, 0), FatalError);
}
