/**
 * @file
 * Unit tests for the shadow-to-physical translation table.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "base/random.hh"
#include "mtlb/shadow_table.hh"

using namespace mtlbsim;

TEST(ShadowPteTest, IsFourBytes)
{
    // §2.2: 4-byte entries; 24-bit PFN maps 64 GB of real memory.
    EXPECT_EQ(sizeof(ShadowPte), 4u);
}

TEST(ShadowTableTest, EntryAddressComputation)
{
    // §2.2's fill example: index 0x240, table base 0, entry 4 bytes
    // -> the fill hardware loads from 0x900.
    ShadowTable table(0x1000, 0);
    EXPECT_EQ(table.entryAddr(0x240), 0x900u);
}

TEST(ShadowTableTest, EntryAddressWithBase)
{
    ShadowTable table(0x1000, 0x00100000);
    EXPECT_EQ(table.entryAddr(0), 0x00100000u);
    EXPECT_EQ(table.entryAddr(3), 0x0010000cu);
}

TEST(ShadowTableTest, SetInstallsValidMapping)
{
    ShadowTable table(64, 0);
    table.set(5, 0x40138);
    const ShadowPte &e = table.entry(5);
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.realPfn, 0x40138u);
    EXPECT_FALSE(e.fault);
    EXPECT_FALSE(e.referenced);
    EXPECT_FALSE(e.modified);
}

TEST(ShadowTableTest, SetRejectsOversizedPfn)
{
    ShadowTable table(64, 0);
    EXPECT_THROW(table.set(0, Addr{1} << 24), FatalError);
}

TEST(ShadowTableTest, InvalidatePreservesAccessBits)
{
    ShadowTable table(64, 0);
    table.set(1, 0x123);
    table.setReferenced(1, true);
    table.setModified(1, true);
    table.invalidate(1);
    EXPECT_FALSE(table.entry(1).valid);
    EXPECT_TRUE(table.entry(1).referenced);
    EXPECT_TRUE(table.entry(1).modified);
}

TEST(ShadowTableTest, ClearWipesEntry)
{
    ShadowTable table(64, 0);
    table.set(1, 0x123);
    table.setModified(1, true);
    table.clear(1);
    EXPECT_FALSE(table.entry(1).valid);
    EXPECT_FALSE(table.entry(1).modified);
    EXPECT_EQ(table.entry(1).realPfn, 0u);
}

TEST(ShadowTableTest, OutOfRangePanics)
{
    ShadowTable table(64, 0);
    EXPECT_THROW(table.entry(64), PanicError);
    EXPECT_THROW(table.entryAddr(1000), PanicError);
}

TEST(ShadowTableTest, PaperSizedTableIs512KB)
{
    // §2.2: 512 MB of shadow space = 128 K entries = 512 KB.
    const Addr entries = (Addr{512} * 1024 * 1024) >> basePageShift;
    ShadowTable table(entries, 0);
    EXPECT_EQ(entries * sizeof(ShadowPte), Addr{512} * 1024);
    EXPECT_EQ(table.numEntries(), 131072u);
}

TEST(ShadowTableTest, RejectsEmptyOrMisaligned)
{
    EXPECT_THROW(ShadowTable(0, 0), FatalError);
    EXPECT_THROW(ShadowTable(64, 2), FatalError);
}

TEST(ShadowTableTest, ValidIndexMatchesFullScan)
{
    // Seeded differential test: under random set/invalidate/clear and
    // status-bit writes, forEachValid() visits exactly what a scan of
    // every entry finds valid, in index order. 1000 entries leave a
    // partial last word in the index.
    ShadowTable table(1000, 0);
    Random rng(11);
    const auto scan = [&table] {
        std::vector<std::pair<Addr, std::uint32_t>> valid;
        for (Addr i = 0; i < table.numEntries(); ++i) {
            if (table.entry(i).valid)
                valid.push_back({i, table.entry(i).realPfn});
        }
        return valid;
    };
    for (int step = 0; step < 20000; ++step) {
        const Addr idx = rng.below(table.numEntries());
        switch (rng.below(6)) {
          case 0:
          case 1:
            table.set(idx, rng.below(Addr{1} << 24));
            break;
          case 2:
            table.invalidate(idx);
            break;
          case 3:
            table.clear(idx);
            break;
          case 4:
            table.markFault(idx);
            break;
          default:
            table.setReferenced(idx, rng.chance(1, 2));
            table.setModified(idx, rng.chance(1, 2));
            break;
        }
        if (step % 500 != 0)
            continue;
        std::vector<std::pair<Addr, std::uint32_t>> visited;
        table.forEachValid([&](Addr i, const ShadowPte &pte) {
            visited.push_back({i, pte.realPfn});
        });
        const auto expected = scan();
        ASSERT_EQ(visited, expected) << "step " << step;
        ASSERT_EQ(table.numValid(), expected.size());
    }
}

TEST(ShadowTableTest, StatusBitWritesKeepTheMapping)
{
    ShadowTable table(64, 0);
    table.set(3, 0x77);
    table.markFault(3);
    table.setReferenced(3, true);
    table.setModified(3, true);
    EXPECT_TRUE(table.entry(3).valid);
    EXPECT_EQ(table.entry(3).realPfn, 0x77u);
    EXPECT_TRUE(table.entry(3).fault);
    table.setReferenced(3, false);
    EXPECT_FALSE(table.entry(3).referenced);
    EXPECT_TRUE(table.entry(3).modified);
    EXPECT_EQ(table.numValid(), 1u);
}
