/**
 * @file
 * Unit tests for the base library: logging, types, intmath, random.
 */

#include <gtest/gtest.h>

#include <set>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/types.hh"

using namespace mtlbsim;

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom"), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, PanicMessageIsAssembled)
{
    try {
        panic("value was ", 42, " not ", 43);
        FAIL() << "expected panic";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "value was 42 not 43");
    }
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "no"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "no"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Logging, WarnDoesNotThrow)
{
    EXPECT_NO_THROW(warn("suspicious"));
}

TEST(Types, ClockRatio)
{
    EXPECT_EQ(cpuCyclesPerMmcCycle, 2u);
    EXPECT_EQ(mmcToCpuCycles(5), 10u);
}

TEST(Types, PageHelpers)
{
    EXPECT_EQ(basePageSize, 4096u);
    EXPECT_EQ(pageFrame(0x12345678), 0x12345u);
    EXPECT_EQ(pageBase(0x12345678), 0x12345000u);
    EXPECT_EQ(pageOffset(0x12345678), 0x678u);
}

TEST(Types, LineHelpers)
{
    EXPECT_EQ(cacheLineSize, 32u);
    EXPECT_EQ(lineBase(0x1234567f), 0x12345660u);
}

TEST(Intmath, IsPowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(4097));
}

TEST(Intmath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
    EXPECT_EQ(floorLog2(8191), 12u);
}

TEST(Intmath, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
    EXPECT_EQ(ceilLog2(524288), 19u);
}

TEST(Intmath, RoundUpDown)
{
    EXPECT_EQ(roundUp(0, 4096), 0u);
    EXPECT_EQ(roundUp(1, 4096), 4096u);
    EXPECT_EQ(roundUp(4096, 4096), 4096u);
    EXPECT_EQ(roundDown(8191, 4096), 4096u);
}

TEST(Intmath, DivCeil)
{
    EXPECT_EQ(divCeil(0, 8), 0u);
    EXPECT_EQ(divCeil(1, 8), 1u);
    EXPECT_EQ(divCeil(8, 8), 1u);
    EXPECT_EQ(divCeil(9, 8), 2u);
}

TEST(Random, Deterministic)
{
    Random a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(7), b(8);
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs |= a.next() != b.next();
    EXPECT_TRUE(differs);
}

TEST(Random, ZeroSeedRemapped)
{
    Random a(0);
    // Must not produce a degenerate all-zero stream.
    std::set<std::uint64_t> values;
    for (int i = 0; i < 16; ++i)
        values.insert(a.next());
    EXPECT_GT(values.size(), 10u);
}

TEST(Random, BelowIsInRange)
{
    Random rng(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Random, InRangeInclusive)
{
    Random rng(2);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.inRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, ChanceRoughlyCalibrated)
{
    Random rng(3);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(1, 4) ? 1 : 0;
    EXPECT_NEAR(hits, 2500, 300);
}
