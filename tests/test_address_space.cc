/**
 * @file
 * Unit tests for the per-process address space.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "os/address_space.hh"

using namespace mtlbsim;

namespace
{
AddressSpace
makeSpace()
{
    return AddressSpace(0x00400000);
}

/** Mapping changes outside a kernel; a detached edit has no state,
 *  so every test shares this one. */
TranslationEdit edit = detachedEdit();
}

TEST(AddressSpaceTest, RegionLookup)
{
    AddressSpace as = makeSpace();
    as.addRegion("text", 0x400000, 0x10000, {false, true});
    as.addRegion("data", 0x10000000, 0x100000, {});
    EXPECT_EQ(as.findRegion(0x400000)->name, "text");
    EXPECT_EQ(as.findRegion(0x10000000)->name, "data");
    EXPECT_EQ(as.findRegion(0x500000), nullptr);
    EXPECT_EQ(as.findRegionByName("data")->base, 0x10000000u);
    EXPECT_EQ(as.findRegionByName("nope"), nullptr);
}

TEST(AddressSpaceTest, OverlappingRegionsRejected)
{
    AddressSpace as = makeSpace();
    as.addRegion("a", 0x1000, 0x2000, {});
    EXPECT_THROW(as.addRegion("b", 0x2000, 0x2000, {}), FatalError);
    EXPECT_NO_THROW(as.addRegion("c", 0x3000, 0x1000, {}));
}

TEST(AddressSpaceTest, UnalignedRegionsRejected)
{
    AddressSpace as = makeSpace();
    EXPECT_THROW(as.addRegion("a", 0x1001, 0x1000, {}), FatalError);
    EXPECT_THROW(as.addRegion("a", 0x1000, 0x1001, {}), FatalError);
    EXPECT_THROW(as.addRegion("a", 0x1000, 0, {}), FatalError);
}

TEST(AddressSpaceTest, FrameInstallAndRemove)
{
    AddressSpace as = makeSpace();
    EXPECT_FALSE(as.isPagePresent(0x5000));
    as.installFrame(0x5000, 0x1234, edit);
    EXPECT_TRUE(as.isPagePresent(0x5123));  // same page
    EXPECT_EQ(as.frameOf(0x5fff), 0x1234u);
    EXPECT_EQ(as.removeFrame(0x5000, edit), 0x1234u);
    EXPECT_FALSE(as.isPagePresent(0x5000));
}

TEST(AddressSpaceTest, DoubleInstallPanics)
{
    AddressSpace as = makeSpace();
    as.installFrame(0x5000, 1, edit);
    EXPECT_THROW(as.installFrame(0x5000, 2, edit), PanicError);
}

TEST(AddressSpaceTest, FrameOfAbsentPagePanics)
{
    AddressSpace as = makeSpace();
    EXPECT_THROW(as.frameOf(0x5000), PanicError);
    EXPECT_THROW(as.removeFrame(0x5000, edit), PanicError);
}

TEST(AddressSpaceTest, SuperpageRecords)
{
    AddressSpace as = makeSpace();
    as.addSuperpage({0x400000, 0x80000000, 4}, edit);
    const ShadowSuperpage *sp = as.findSuperpage(0x4abcde);
    ASSERT_NE(sp, nullptr);
    EXPECT_EQ(sp->vbase, 0x400000u);
    EXPECT_EQ(sp->numBasePages(), 256u);
    EXPECT_EQ(as.findSuperpage(0x3fffff), nullptr);
    EXPECT_EQ(as.findSuperpage(0x500000), nullptr);
}

TEST(AddressSpaceTest, AdjacentSuperpagesResolve)
{
    AddressSpace as = makeSpace();
    as.addSuperpage({0x400000, 0x80000000, 4}, edit);     // 1 MB
    as.addSuperpage({0x500000, 0x80100000, 4}, edit);     // next 1 MB
    EXPECT_EQ(as.findSuperpage(0x4fffff)->vbase, 0x400000u);
    EXPECT_EQ(as.findSuperpage(0x500000)->vbase, 0x500000u);
}

TEST(AddressSpaceTest, SuperpageAlignmentEnforced)
{
    AddressSpace as = makeSpace();
    EXPECT_THROW(as.addSuperpage({0x401000, 0x80000000, 4}, edit),
                 FatalError);
    EXPECT_THROW(as.addSuperpage({0x400000, 0x80001000, 4}, edit),
                 FatalError);
}

TEST(AddressSpaceTest, DuplicateSuperpagePanics)
{
    AddressSpace as = makeSpace();
    as.addSuperpage({0x400000, 0x80000000, 4}, edit);
    EXPECT_THROW(as.addSuperpage({0x400000, 0x80100000, 4}, edit),
                 PanicError);
}

TEST(AddressSpaceTest, RemoveSuperpage)
{
    AddressSpace as = makeSpace();
    as.addSuperpage({0x400000, 0x80000000, 4}, edit);
    as.removeSuperpage(0x400000, edit);
    EXPECT_EQ(as.findSuperpage(0x400000), nullptr);
    EXPECT_THROW(as.removeSuperpage(0x400000, edit), PanicError);
}

TEST(AddressSpaceTest, PageTableEntryAddresses)
{
    AddressSpace as = makeSpace();
    // L1 entries live in the first pool page.
    EXPECT_EQ(as.l1EntryAddr(0), 0x00400000u);
    EXPECT_EQ(as.l1EntryAddr(0x00400000), 0x00400004u);
    // L2 nodes are distinct per 4 MB of VA and allocated on demand.
    const Addr l2a = as.l2EntryAddr(0x00000000);
    const Addr l2b = as.l2EntryAddr(0x00400000);
    EXPECT_NE(pageBase(l2a), pageBase(l2b));
    // Same VA always maps to the same entry address.
    EXPECT_EQ(as.l2EntryAddr(0x00000000), l2a);
    // Adjacent pages get adjacent entries.
    EXPECT_EQ(as.l2EntryAddr(0x00001000), l2a + 4);
}

TEST(AddressSpaceTest, PresentPageCount)
{
    AddressSpace as = makeSpace();
    as.installFrame(0x1000, 1, edit);
    as.installFrame(0x2000, 2, edit);
    EXPECT_EQ(as.numPresentPages(), 2u);
}

TEST(AddressSpaceTest, RadixTableMatchesMapReference)
{
    // Seeded differential test of the present-page table against a
    // std::map, over vpns around leaf boundaries, across the top of
    // the 32-bit space and far above it (vpn >= 2^20).
    AddressSpace as = makeSpace();
    std::map<Addr, Addr> ref;
    Random rng(2024);
    const Addr bases[] = {0, 0x3ff, 0x7fe00, 0xfff00, Addr{1} << 20,
                          (Addr{1} << 28) + 5};
    const auto check_vpn = [&](Addr vpn) {
        const Addr va = (vpn << basePageShift) + 0x123;
        const auto it = ref.find(vpn);
        ASSERT_EQ(as.isPagePresent(va), it != ref.end()) << vpn;
        if (it != ref.end())
            ASSERT_EQ(as.frameOf(va), it->second) << vpn;
        else
            ASSERT_THROW(as.frameOf(va), PanicError) << vpn;
    };
    for (int step = 0; step < 6000; ++step) {
        const Addr vpn = bases[rng.below(std::size(bases))] +
                         rng.below(0x300);
        const Addr va = vpn << basePageShift;
        if (ref.count(vpn) && rng.chance(1, 2)) {
            ASSERT_EQ(as.removeFrame(va, edit), ref[vpn]);
            ref.erase(vpn);
        } else if (!ref.count(vpn)) {
            const Addr pfn = rng.below(Addr{1} << 24);
            as.installFrame(va, pfn, edit);
            ref[vpn] = pfn;
        }
        check_vpn(vpn);
        check_vpn(bases[rng.below(std::size(bases))] + rng.below(0x300));
    }

    std::vector<std::pair<Addr, Addr>> walked;
    as.forEachPresentPage(
        [&](Addr vpn, Addr pfn) { walked.push_back({vpn, pfn}); });
    EXPECT_EQ(walked,
              (std::vector<std::pair<Addr, Addr>>(ref.begin(), ref.end())));
    EXPECT_EQ(as.numPresentPages(), ref.size());
    // Both sides of the 32-bit space were exercised.
    EXPECT_NE(ref.lower_bound(Addr{1} << 20), ref.begin());
    EXPECT_NE(ref.lower_bound(Addr{1} << 20), ref.end());
}

TEST(AddressSpaceTest, RemovingAnAbsentPagePanics)
{
    AddressSpace as = makeSpace();
    as.installFrame(0x1000, 1, edit);
    EXPECT_THROW(as.removeFrame(0x2000, edit), PanicError);
    EXPECT_THROW(as.removeFrame(Addr{1} << 40, edit), PanicError);
    EXPECT_EQ(as.removeFrame(0x1000, edit), 1u);
    EXPECT_THROW(as.removeFrame(0x1000, edit), PanicError);
    EXPECT_EQ(as.numPresentPages(), 0u);
    // Entries are 4 bytes, like the modelled page table's.
    EXPECT_THROW(as.installFrame(0x1000, Addr{1} << 32, edit), FatalError);
    EXPECT_FALSE(as.isPagePresent(0x1000));
}
