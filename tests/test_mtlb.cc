/**
 * @file
 * Unit tests for the memory-controller TLB — the paper's core
 * mechanism (§2.2, §2.5).
 */

#include <gtest/gtest.h>

#include "mtlb/mtlb.hh"

using namespace mtlbsim;

namespace
{

struct MtlbFixture : ::testing::Test
{
    MtlbFixture()
        : group("t"), table(1024, 0x00100000),
          mtlb(config(), table, group)
    {}

    static MtlbConfig
    config()
    {
        MtlbConfig c;
        c.numEntries = 8;
        c.associativity = 2;    // 4 sets
        return c;
    }

    stats::StatGroup group;
    ShadowTable table;
    Mtlb mtlb;
};

} // namespace

TEST_F(MtlbFixture, MissFillsFromTable)
{
    table.set(5, 0x40138);
    const auto r = mtlb.translate(5, MtlbAccess::SharedFill);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(r.realPfn, 0x40138u);
    EXPECT_EQ(r.tableReads, 1u);    // one hardware fill DRAM read
}

TEST_F(MtlbFixture, SecondAccessHits)
{
    table.set(5, 0x40138);
    mtlb.translate(5, MtlbAccess::SharedFill);
    const auto r = mtlb.translate(5, MtlbAccess::SharedFill);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.tableReads, 0u);
    EXPECT_EQ(mtlb.hits(), 1u);
    EXPECT_EQ(mtlb.misses(), 1u);
}

TEST_F(MtlbFixture, InvalidMappingFaults)
{
    // Entry never set: the backing page is absent (§4).
    const auto r = mtlb.translate(9, MtlbAccess::SharedFill);
    EXPECT_TRUE(r.fault);
    // The fault bit is recorded in the table so the OS can tell a
    // shadow fault from a real parity error (§4).
    EXPECT_TRUE(table.entry(9).fault);
}

TEST_F(MtlbFixture, SharedFillSetsReferencedOnly)
{
    table.set(5, 0x100);
    mtlb.translate(5, MtlbAccess::SharedFill);
    mtlb.syncAccessBits();
    EXPECT_TRUE(table.entry(5).referenced);
    EXPECT_FALSE(table.entry(5).modified);
}

TEST_F(MtlbFixture, ExclusiveFillSetsDirty)
{
    // §2.5: an exclusive cache-line fill marks the base page dirty.
    table.set(5, 0x100);
    mtlb.translate(5, MtlbAccess::ExclusiveFill);
    mtlb.syncAccessBits();
    EXPECT_TRUE(table.entry(5).referenced);
    EXPECT_TRUE(table.entry(5).modified);
}

TEST_F(MtlbFixture, WriteBackSetsDirty)
{
    table.set(5, 0x100);
    mtlb.translate(5, MtlbAccess::WriteBack);
    mtlb.syncAccessBits();
    EXPECT_TRUE(table.entry(5).modified);
}

TEST_F(MtlbFixture, DefaultConfigDefersBitWriteback)
{
    // §3.4: the simulated MTLB does not write updated R/M info back
    // to the table continuously.
    table.set(5, 0x100);
    mtlb.translate(5, MtlbAccess::ExclusiveFill);
    EXPECT_FALSE(table.entry(5).modified);  // still only in the MTLB
    mtlb.syncAccessBits();
    EXPECT_TRUE(table.entry(5).modified);
}

TEST_F(MtlbFixture, WriteThroughModeUpdatesTableImmediately)
{
    MtlbConfig c = config();
    c.writeBackAccessBits = true;
    stats::StatGroup g("t2");
    Mtlb wt(c, table, g);
    table.set(5, 0x100);
    wt.translate(5, MtlbAccess::ExclusiveFill);
    EXPECT_TRUE(table.entry(5).modified);
}

TEST_F(MtlbFixture, EvictionWritesBitsBack)
{
    // Fill one set (indices congruent mod 4) past associativity; the
    // evicted entry's accumulated bits must land in the table.
    table.set(0, 0x100);
    table.set(4, 0x104);
    table.set(8, 0x108);
    mtlb.translate(0, MtlbAccess::ExclusiveFill);
    mtlb.translate(4, MtlbAccess::SharedFill);
    mtlb.translate(8, MtlbAccess::SharedFill);  // evicts index 0
    EXPECT_TRUE(table.entry(0).modified);
}

TEST_F(MtlbFixture, EvictionWritesReferencedOnlyForCleanReads)
{
    // A shared-filled (read-only) entry evicted by set pressure
    // writes back referenced but must not invent a modified bit.
    table.set(0, 0x100);
    table.set(4, 0x104);
    table.set(8, 0x108);
    mtlb.translate(0, MtlbAccess::SharedFill);
    mtlb.translate(4, MtlbAccess::SharedFill);
    mtlb.translate(8, MtlbAccess::SharedFill);  // evicts index 0
    EXPECT_TRUE(table.entry(0).referenced);
    EXPECT_FALSE(table.entry(0).modified);
}

TEST_F(MtlbFixture, EvictionWritesBitsAccumulatedAcrossHits)
{
    // R from the fill plus M from a later write-back hit both ride
    // the eviction write-back; neither touched DRAM in between
    // (deferred mode).
    table.set(0, 0x100);
    table.set(4, 0x104);
    table.set(8, 0x108);
    mtlb.translate(0, MtlbAccess::SharedFill);
    mtlb.translate(0, MtlbAccess::WriteBack);   // hit, accrues M
    EXPECT_FALSE(table.entry(0).modified);      // still deferred
    mtlb.translate(4, MtlbAccess::SharedFill);
    mtlb.translate(8, MtlbAccess::SharedFill);  // evicts index 0
    EXPECT_TRUE(table.entry(0).referenced);
    EXPECT_TRUE(table.entry(0).modified);
}

TEST_F(MtlbFixture, EvictionWithoutFreshBitsWritesNothing)
{
    // An entry refilled from a table that already records R carries
    // no new information; its eviction must not rewrite the table.
    // (Observable: bits cleared behind the MTLB's back stay clear.)
    table.set(0, 0x100);
    mtlb.translate(0, MtlbAccess::SharedFill);
    mtlb.syncAccessBits();                      // R now in the table
    mtlb.purgeAll();
    mtlb.translate(0, MtlbAccess::SharedFill);  // refill; R already set
    table.setReferenced(0, false);              // ECC scrub, say
    table.set(4, 0x104);
    table.set(8, 0x108);
    mtlb.translate(4, MtlbAccess::SharedFill);
    mtlb.translate(8, MtlbAccess::SharedFill);  // evicts index 0
    EXPECT_FALSE(table.entry(0).referenced);
}

TEST_F(MtlbFixture, SetAssociativeConflicts)
{
    // Three pages mapping to the same set of a 2-way MTLB cannot all
    // be resident.
    table.set(0, 0x100);
    table.set(4, 0x104);
    table.set(8, 0x108);
    mtlb.translate(0, MtlbAccess::SharedFill);
    mtlb.translate(4, MtlbAccess::SharedFill);
    mtlb.translate(8, MtlbAccess::SharedFill);
    const auto r = mtlb.translate(0, MtlbAccess::SharedFill);
    EXPECT_FALSE(r.hit);    // 0 was the NRU victim earlier
}

TEST_F(MtlbFixture, DifferentSetsDoNotConflict)
{
    table.set(0, 0x100);
    table.set(1, 0x101);
    table.set(2, 0x102);
    table.set(3, 0x103);
    for (Addr i = 0; i < 4; ++i)
        mtlb.translate(i, MtlbAccess::SharedFill);
    for (Addr i = 0; i < 4; ++i)
        EXPECT_TRUE(mtlb.translate(i, MtlbAccess::SharedFill).hit);
}

TEST_F(MtlbFixture, PurgeInvalidatesAndSyncsBits)
{
    table.set(5, 0x100);
    mtlb.translate(5, MtlbAccess::ExclusiveFill);
    mtlb.purge(5);
    EXPECT_TRUE(table.entry(5).modified);
    const auto r = mtlb.translate(5, MtlbAccess::SharedFill);
    EXPECT_FALSE(r.hit);    // must re-fill after purge
}

TEST_F(MtlbFixture, PurgeAllEmptiesEveryEntry)
{
    table.set(0, 0x100);
    table.set(1, 0x101);
    mtlb.translate(0, MtlbAccess::SharedFill);
    mtlb.translate(1, MtlbAccess::SharedFill);
    mtlb.purgeAll();
    EXPECT_FALSE(mtlb.translate(0, MtlbAccess::SharedFill).hit);
    EXPECT_FALSE(mtlb.translate(1, MtlbAccess::SharedFill).hit);
}

TEST_F(MtlbFixture, StaleEntryGoneAfterPurgeAndRemap)
{
    table.set(5, 0x100);
    mtlb.translate(5, MtlbAccess::SharedFill);
    // OS swaps the backing frame: table updated, MTLB purged.
    table.set(5, 0x200);
    mtlb.purge(5);
    const auto r = mtlb.translate(5, MtlbAccess::SharedFill);
    EXPECT_EQ(r.realPfn, 0x200u);
}

TEST_F(MtlbFixture, FaultAfterInvalidation)
{
    // §2.5/§4: after the OS swaps a base page out, accesses to it
    // fault even though the CPU TLB superpage entry is untouched.
    table.set(5, 0x100);
    mtlb.translate(5, MtlbAccess::SharedFill);
    mtlb.purge(5);
    table.invalidate(5);
    const auto r = mtlb.translate(5, MtlbAccess::SharedFill);
    EXPECT_TRUE(r.fault);
}

TEST_F(MtlbFixture, HitRateComputation)
{
    table.set(0, 0x100);
    mtlb.translate(0, MtlbAccess::SharedFill);  // miss
    mtlb.translate(0, MtlbAccess::SharedFill);  // hit
    mtlb.translate(0, MtlbAccess::SharedFill);  // hit
    EXPECT_NEAR(mtlb.hitRate(), 2.0 / 3.0, 1e-9);
}

TEST(MtlbConfigTest, RejectsBadGeometry)
{
    stats::StatGroup g("t");
    ShadowTable table(64, 0);
    MtlbConfig c;
    c.numEntries = 0;
    EXPECT_THROW(Mtlb(c, table, g), FatalError);
    c.numEntries = 128;
    c.associativity = 0;
    EXPECT_THROW(Mtlb(c, table, g), FatalError);
    c.associativity = 3;    // 128/3 does not divide evenly
    EXPECT_THROW(Mtlb(c, table, g), FatalError);
    c.numEntries = 96;      // 96/3 = 32 sets: fine and power of 2
    EXPECT_NO_THROW(Mtlb(c, table, g));
    c.numEntries = 72;      // 24 sets: not a power of 2
    EXPECT_THROW(Mtlb(c, table, g), FatalError);
}

TEST(MtlbFullyAssociative, SingleSetWorks)
{
    stats::StatGroup g("t");
    ShadowTable table(64, 0);
    MtlbConfig c;
    c.numEntries = 4;
    c.associativity = 4;    // fully associative
    Mtlb mtlb(c, table, g);
    EXPECT_EQ(mtlb.numSets(), 1u);
    for (Addr i = 0; i < 4; ++i)
        table.set(i, 0x100 + i);
    for (Addr i = 0; i < 4; ++i)
        mtlb.translate(i, MtlbAccess::SharedFill);
    for (Addr i = 0; i < 4; ++i)
        EXPECT_TRUE(mtlb.translate(i, MtlbAccess::SharedFill).hit);
}

TEST(MtlbPaperConfig, DefaultIs128Entry2Way)
{
    // §3.4's default MTLB configuration.
    MtlbConfig c;
    EXPECT_EQ(c.numEntries, 128u);
    EXPECT_EQ(c.associativity, 2u);
    EXPECT_FALSE(c.writeBackAccessBits);
}
