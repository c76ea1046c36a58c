/**
 * @file
 * Unit tests for the MMC (shadow detection, MTLB integration,
 * control-register interface, fault signalling).
 */

#include <gtest/gtest.h>

#include "mmc/mmc.hh"
#include "os/translation_edit.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;

/** Mapping changes outside a kernel; a detached edit has no state,
 *  so every test shares this one. */
TranslationEdit edit = detachedEdit();

struct MmcFixture : ::testing::Test
{
    MmcFixture()
        : map(256 * MB, {0x80000000, 512 * MB}, 32), group("t"),
          mmc(config(), map, group)
    {}

    static MmcConfig
    config()
    {
        MmcConfig c;
        c.hasMtlb = true;
        return c;
    }

    PhysMap map;
    stats::StatGroup group;
    Mmc mmc;
};

} // namespace

TEST_F(MmcFixture, RealAddressGoesStraightToDram)
{
    const auto r = mmc.service(MmcOp::SharedFill, 0x1000);
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(r.realAddr, 0x1000u);
    EXPECT_GT(r.mmcCycles, 0u);
}

TEST_F(MmcFixture, ShadowAddressIsRetranslated)
{
    // Figure 1's worked example: shadow 0x80241040 backed by real
    // frame 0x04012 -> real 0x04012040.
    const Addr spi = map.shadowPageIndex(0x80241000);
    mmc.setShadowMapping(spi, 0x04012, edit);
    const auto r = mmc.service(MmcOp::SharedFill, 0x80241040);
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(r.realAddr, 0x04012040u);
}

TEST_F(MmcFixture, MtlbPresenceAddsShadowCheckCycleToRealOps)
{
    // §2.2: the real-vs-shadow check adds one MMC cycle to *every*
    // operation, including purely real ones.
    MmcConfig no_mtlb = config();
    no_mtlb.hasMtlb = false;
    PhysMap plain_map(256 * MB, {}, 32);
    stats::StatGroup g2("t2");
    Mmc plain(no_mtlb, plain_map, g2);

    const auto with = mmc.service(MmcOp::SharedFill, 0x1000);
    const auto without = plain.service(MmcOp::SharedFill, 0x1000);
    EXPECT_EQ(with.mmcCycles, without.mmcCycles + 1);
}

TEST_F(MmcFixture, MtlbMissCostsExtraTableRead)
{
    const Addr spi = map.shadowPageIndex(0x80000000);
    mmc.setShadowMapping(spi, 0x100, edit);
    const auto miss = mmc.service(MmcOp::SharedFill, 0x80000000);
    const auto hit = mmc.service(MmcOp::SharedFill, 0x80000000);
    EXPECT_GT(miss.mmcCycles, hit.mmcCycles);
}

TEST_F(MmcFixture, InvalidShadowMappingRaisesFault)
{
    const auto r = mmc.service(MmcOp::SharedFill, 0x80000000);
    EXPECT_TRUE(r.fault);
}

TEST_F(MmcFixture, FaultAfterSwapOut)
{
    const Addr spi = map.shadowPageIndex(0x80400000);
    mmc.setShadowMapping(spi, 0x200, edit);
    EXPECT_FALSE(mmc.service(MmcOp::SharedFill, 0x80400000).fault);
    mmc.invalidateShadowMapping(spi, edit);
    EXPECT_TRUE(mmc.service(MmcOp::SharedFill, 0x80400000).fault);
}

TEST_F(MmcFixture, RemapAfterSwapInRestoresService)
{
    const Addr spi = map.shadowPageIndex(0x80400000);
    mmc.setShadowMapping(spi, 0x200, edit);
    mmc.invalidateShadowMapping(spi, edit);
    mmc.setShadowMapping(spi, 0x300, edit);   // page back in, new frame
    const auto r = mmc.service(MmcOp::SharedFill, 0x80400000);
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(r.realAddr, Addr{0x300} << basePageShift);
}

TEST_F(MmcFixture, WriteBackToShadowSetsDirtyBit)
{
    // §2.5: the MTLB notes write-backs and exclusive fills.
    const Addr spi = map.shadowPageIndex(0x80800000);
    mmc.setShadowMapping(spi, 0x400, edit);
    mmc.service(MmcOp::WriteBack, 0x80800000);
    EXPECT_TRUE(mmc.readShadowEntry(spi).modified);
}

TEST_F(MmcFixture, SharedFillDoesNotSetDirty)
{
    const Addr spi = map.shadowPageIndex(0x80800000);
    mmc.setShadowMapping(spi, 0x400, edit);
    mmc.service(MmcOp::SharedFill, 0x80800000);
    const ShadowPte pte = mmc.readShadowEntry(spi);
    EXPECT_TRUE(pte.referenced);
    EXPECT_FALSE(pte.modified);
}

TEST_F(MmcFixture, ReadShadowEntrySyncsMtlbBits)
{
    const Addr spi = map.shadowPageIndex(0x80800000);
    mmc.setShadowMapping(spi, 0x400, edit);
    mmc.service(MmcOp::ExclusiveFill, 0x80800000);
    // Without sync the table copy would still be clean (§3.4); the
    // control read must return the MTLB's accumulated state.
    EXPECT_TRUE(mmc.readShadowEntry(spi).modified);
}

TEST_F(MmcFixture, IoAddressesBypassDramAndMtlb)
{
    map.addIoHole({0xf0000000, MB});
    const auto r = mmc.service(MmcOp::UncachedRead, 0xf0000000);
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(r.realAddr, 0xf0000000u);
}

TEST_F(MmcFixture, InvalidAddressPanics)
{
    EXPECT_THROW(mmc.service(MmcOp::SharedFill, 0x30000000),
                 PanicError);
}

TEST_F(MmcFixture, ShadowWithoutMtlbPanics)
{
    MmcConfig c = config();
    c.hasMtlb = false;
    stats::StatGroup g2("t2");
    Mmc plain(c, map, g2);
    EXPECT_THROW(plain.service(MmcOp::SharedFill, 0x80000000),
                 PanicError);
}

TEST_F(MmcFixture, MtlbRequiresShadowRegion)
{
    PhysMap plain_map(256 * MB, {}, 32);
    stats::StatGroup g2("t2");
    EXPECT_THROW(Mmc(config(), plain_map, g2), FatalError);
}

TEST_F(MmcFixture, ControlOpsReturnNonzeroCost)
{
    EXPECT_GT(mmc.setShadowMapping(0, 0x100, edit), 0u);
    EXPECT_GT(mmc.invalidateShadowMapping(0, edit), 0u);
    EXPECT_GT(mmc.clearShadowMapping(0, edit), 0u);
}

TEST_F(MmcFixture, ClearRemovesEverything)
{
    const Addr spi = 7;
    mmc.setShadowMapping(spi, 0x100, edit);
    mmc.service(MmcOp::ExclusiveFill, 0x80000000 + (spi << 12));
    mmc.clearShadowMapping(spi, edit);
    const ShadowPte pte = mmc.shadowTable().entry(spi);
    EXPECT_FALSE(pte.valid);
    EXPECT_FALSE(pte.modified);
}
