/**
 * @file
 * Unit tests for the dispersing physical frame allocator.
 */

#include <gtest/gtest.h>

#include <set>

#include "os/frame_alloc.hh"
#include "os/translation_edit.hh"

using namespace mtlbsim;

namespace
{
/** Frees outside a kernel; a detached edit has no state, so every
 *  test shares this one. */
TranslationEdit edit = detachedEdit();
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
