/**
 * @file
 * Unit tests for the composed memory subsystem (bus + MMC).
 */

#include <gtest/gtest.h>

#include "mmc/memsys.hh"
#include "mmc/mmc.hh"
#include "os/translation_edit.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;

/** Mapping changes outside a kernel; a detached edit has no state,
 *  so every test shares this one. */
TranslationEdit edit = detachedEdit();

struct MemsysFixture : ::testing::Test
{
    MemsysFixture()
        : map(256 * MB, {0x80000000, 512 * MB}, 32), group("t"),
          memsys(BusConfig{}, mmcConfig(), map, group)
    {}

    static MmcConfig
    mmcConfig()
    {
        MmcConfig c;
        c.hasMtlb = true;
        return c;
    }

    PhysMap map;
    stats::StatGroup group;
    MemorySystem memsys;
};

} // namespace

TEST_F(MemsysFixture, LineFillLatencyIsBusPlusMmcPlusReturn)
{
    const Cycles t = memsys.lineFill(0x1000, false, 0);
    // Lower bound: request (4) + return (8) + minimal MMC work.
    EXPECT_GT(t, 12u);
    EXPECT_FALSE(memsys.faulted());
}

TEST_F(MemsysFixture, WriteBackOnlyChargesBusAcceptance)
{
    const Cycles fill = memsys.lineFill(0x1000, false, 1000);
    const Cycles wb = memsys.writeBack(0x2000, 2000);
    EXPECT_LT(wb, fill);
}

TEST_F(MemsysFixture, ShadowFillTranslates)
{
    memsys.controlOp(0, [&](Mmc &m) {
        return m.setShadowMapping(0, 0x1234, edit);
    });
    const Cycles t = memsys.lineFill(0x80000000, false, 0);
    EXPECT_GT(t, 0u);
    EXPECT_FALSE(memsys.faulted());
}

TEST_F(MemsysFixture, FaultedFlagTracksLastFill)
{
    memsys.lineFill(0x80000000, false, 0);  // unmapped shadow page
    EXPECT_TRUE(memsys.faulted());
    memsys.lineFill(0x1000, false, 100);
    EXPECT_FALSE(memsys.faulted());
}

TEST_F(MemsysFixture, ControlOpChargesBusAndMmc)
{
    const Cycles t = memsys.controlOp(0, [&](Mmc &m) {
        return m.setShadowMapping(1, 0x42, edit);
    });
    // Uncached bus transfer is 6 CPU cycles; MMC work adds more.
    EXPECT_GT(t, 6u);
    EXPECT_TRUE(memsys.mmc().shadowTable().entry(1).valid);
}

TEST_F(MemsysFixture, ExclusiveFillMarksDirtyThroughTheStack)
{
    memsys.controlOp(0, [&](Mmc &m) {
        return m.setShadowMapping(2, 0x99, edit);
    });
    memsys.lineFill(0x80002000, true, 0);
    ShadowPte pte{};
    memsys.controlOp(10, [&](Mmc &m) {
        pte = m.readShadowEntry(2);
        return Cycles{1};
    });
    EXPECT_TRUE(pte.modified);
}

TEST_F(MemsysFixture, MtlbHitsReduceFillLatency)
{
    memsys.controlOp(0, [&](Mmc &m) {
        return m.setShadowMapping(3, 0x77, edit);
    });
    const Cycles first = memsys.lineFill(0x80003000, false, 1000);
    const Cycles second = memsys.lineFill(0x80003020, false, 2000);
    EXPECT_GT(first, second);   // second avoids the MTLB table fill
}
