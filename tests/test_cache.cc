/**
 * @file
 * Unit tests for the direct-mapped VIPT cache model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"

using namespace mtlbsim;

namespace
{

/** Backend that returns fixed latencies and records the traffic. */
class FakeBackend : public MemBackend
{
  public:
    Cycles fillLatency = 20;
    Cycles wbLatency = 6;
    std::vector<Addr> fills;
    std::vector<bool> fillExclusive;
    std::vector<Addr> writeBacks;

    Cycles
    lineFill(Addr paddr, bool exclusive, Cycles) override
    {
        fills.push_back(paddr);
        fillExclusive.push_back(exclusive);
        return fillLatency;
    }

    Cycles
    writeBack(Addr paddr, Cycles) override
    {
        writeBacks.push_back(paddr);
        return wbLatency;
    }
};

struct CacheFixture : ::testing::Test
{
    CacheFixture() : group("t"), cache(config(), backend, group) {}

    static CacheConfig
    config()
    {
        CacheConfig c;
        c.sizeBytes = 64 * 1024;    // small for aliasing tests
        return c;
    }

    stats::StatGroup group;
    FakeBackend backend;
    Cache cache;
};

} // namespace

TEST_F(CacheFixture, ColdMissFillsLine)
{
    const auto r = cache.access(0x1000, 0x5000, false, 0);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, 1u + 20u);
    ASSERT_EQ(backend.fills.size(), 1u);
    EXPECT_EQ(backend.fills[0], 0x5000u);
    EXPECT_FALSE(backend.fillExclusive[0]);
}

TEST_F(CacheFixture, HitAfterFill)
{
    cache.access(0x1000, 0x5000, false, 0);
    const auto r = cache.access(0x1004, 0x5004, false, 30);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 1u);
}

TEST_F(CacheFixture, StoreMissIsExclusiveFill)
{
    cache.access(0x1000, 0x5000, true, 0);
    ASSERT_EQ(backend.fillExclusive.size(), 1u);
    EXPECT_TRUE(backend.fillExclusive[0]);
}

TEST_F(CacheFixture, DirtyVictimIsWrittenBack)
{
    cache.access(0x1000, 0x5000, true, 0);     // dirty line
    // Same index (64 KB apart in virtual space), different tag.
    cache.access(0x1000 + 64 * 1024, 0x9000, false, 100);
    ASSERT_EQ(backend.writeBacks.size(), 1u);
    EXPECT_EQ(backend.writeBacks[0], 0x5000u);
}

TEST_F(CacheFixture, CleanVictimIsNotWrittenBack)
{
    cache.access(0x1000, 0x5000, false, 0);
    cache.access(0x1000 + 64 * 1024, 0x9000, false, 100);
    EXPECT_TRUE(backend.writeBacks.empty());
}

TEST_F(CacheFixture, WriteHitSetsDirty)
{
    cache.access(0x1000, 0x5000, false, 0);    // clean fill
    cache.access(0x1000, 0x5000, true, 10);    // dirty it
    cache.access(0x1000 + 64 * 1024, 0x9000, false, 100);
    EXPECT_EQ(backend.writeBacks.size(), 1u);
}

TEST_F(CacheFixture, VirtualIndexPhysicalTag)
{
    // Two different virtual addresses with the same physical line:
    // VIPT means they can occupy two distinct cache slots.
    cache.access(0x1000, 0x5000, false, 0);
    const auto r = cache.access(0x2000, 0x5000, false, 10);
    EXPECT_FALSE(r.hit);    // different index, so a separate fill
    EXPECT_EQ(backend.fills.size(), 2u);
}

TEST_F(CacheFixture, ShadowAddressesAreOrdinaryTags)
{
    // Shadow physical addresses flow through the cache unchanged
    // (§1: they appear as physical tags on cache lines).
    const Addr shadow = 0x80240080;
    cache.access(0x4080, shadow, false, 0);
    EXPECT_TRUE(cache.probe(0x4080, shadow));
    const auto r = cache.access(0x4080, shadow, false, 10);
    EXPECT_TRUE(r.hit);
}

TEST_F(CacheFixture, FlushPageWritesBackDirtyLines)
{
    // Dirty three lines of the page at vaddr 0x3000 / paddr 0x7000.
    cache.access(0x3000, 0x7000, true, 0);
    cache.access(0x3020, 0x7020, true, 50);
    cache.access(0x3800, 0x7800, true, 100);
    backend.writeBacks.clear();

    cache.flushPage(0x3000, 0x7000, 200);
    EXPECT_EQ(backend.writeBacks.size(), 3u);
    EXPECT_FALSE(cache.probe(0x3000, 0x7000));
    EXPECT_FALSE(cache.probe(0x3020, 0x7020));
    EXPECT_FALSE(cache.probe(0x3800, 0x7800));
}

TEST_F(CacheFixture, FlushPageCostIncludesProbes)
{
    // An empty page flush still probes all 128 line slots — also once
    // the page's resident-line counter has drained back to zero, so
    // flushPage's cold-page early-out never changes simulated cost.
    const unsigned lines_per_page = basePageSize / cacheLineSize;
    const Cycles probes = lines_per_page * config().flushProbeCycles;
    EXPECT_EQ(cache.flushPage(0x3000, 0x7000, 0), probes);
    cache.access(0x3000, 0x7000, false, 0);
    EXPECT_EQ(cache.residentInPage(0x7000), 1u);
    cache.flushPage(0x3000, 0x7000, 0);
    EXPECT_EQ(cache.residentInPage(0x7000), 0u);
    EXPECT_EQ(cache.flushPage(0x3000, 0x7000, 0), probes);
}

TEST_F(CacheFixture, ResidentCountsSpanChunksAndShadowPages)
{
    // The per-page counters come in chunks of 1024 pages: a shadow
    // page far above real memory, its neighbour in the same chunk and
    // pages of other chunks count on their own, and an untouched page
    // (of a chunk that exists or not) reads 0.
    const Addr shadow = 0x80240000;
    cache.access(0x0000, shadow, true, 0);
    cache.access(0x0020, shadow + 0x20, false, 10);
    cache.access(0x1000, shadow + basePageSize, false, 20);
    cache.access(0x2000, 0x7000, false, 30);
    EXPECT_EQ(cache.residentInPage(shadow), 2u);
    EXPECT_EQ(cache.residentInPage(shadow + basePageSize), 1u);
    EXPECT_EQ(cache.residentInPage(0x7000), 1u);
    EXPECT_EQ(cache.residentInPage(shadow + 2 * basePageSize), 0u);
    EXPECT_EQ(cache.residentInPage(0x40000000), 0u);
    EXPECT_EQ(cache.residentInPage(Addr{1} << 40), 0u);

    // An eviction drops the victim's count and raises the new tag's.
    cache.access(0x0000, 0x9000, false, 40);
    EXPECT_EQ(cache.residentInPage(shadow), 1u);
    EXPECT_EQ(cache.residentInPage(0x9000), 1u);

    backend.writeBacks.clear();
    cache.flushPage(0x0000, shadow, 50);
    EXPECT_EQ(cache.residentInPage(shadow), 0u);
    EXPECT_TRUE(backend.writeBacks.empty());  // written back at eviction
    cache.invalidateAll();
    EXPECT_EQ(cache.residentInPage(shadow + basePageSize), 0u);
    EXPECT_EQ(cache.residentInPage(0x7000), 0u);
    EXPECT_EQ(cache.residentInPage(0x9000), 0u);
}

TEST_F(CacheFixture, FlushPageCostNearPaperValue)
{
    // §3.3: flushing a 4 KB page averages ~1,400 CPU cycles. With
    // the default 10-cycle probe the pure loop is 1,280 cycles;
    // write-backs add the rest.
    const Cycles cost = cache.flushPage(0x3000, 0x7000, 0);
    EXPECT_GE(cost, 1000u);
    EXPECT_LE(cost, 2000u);
}

TEST_F(CacheFixture, FlushPageLeavesOtherPagesAlone)
{
    cache.access(0x3000, 0x7000, true, 0);
    cache.access(0x5000, 0x9000, true, 10);    // different page
    cache.flushPage(0x3000, 0x7000, 100);
    EXPECT_TRUE(cache.probe(0x5000, 0x9000));
}

TEST_F(CacheFixture, FlushPageIgnoresAliasedTags)
{
    // A line at the right index but belonging to another physical
    // page must survive the flush.
    cache.access(0x3000, 0xb000, true, 0);
    cache.flushPage(0x3000, 0x7000, 100);
    EXPECT_TRUE(cache.probe(0x3000, 0xb000));
    EXPECT_TRUE(backend.writeBacks.empty());
}

TEST_F(CacheFixture, InvalidateLineDropsWithoutWriteback)
{
    cache.access(0x1000, 0x5000, true, 0);
    cache.invalidateLine(0x1000, 0x5000);
    EXPECT_FALSE(cache.probe(0x1000, 0x5000));
    EXPECT_TRUE(backend.writeBacks.empty());
}

TEST_F(CacheFixture, InvalidateAllEmptiesCache)
{
    cache.access(0x1000, 0x5000, true, 0);
    cache.access(0x2000, 0x6000, false, 10);
    cache.invalidateAll();
    EXPECT_FALSE(cache.probe(0x1000, 0x5000));
    EXPECT_FALSE(cache.probe(0x2000, 0x6000));
}

TEST_F(CacheFixture, FillLatencyStatTracksBackend)
{
    backend.fillLatency = 42;
    cache.access(0x1000, 0x5000, false, 0);
    EXPECT_DOUBLE_EQ(cache.avgFillLatency(), 42.0);
}

TEST_F(CacheFixture, HitAndMissCounters)
{
    cache.access(0x1000, 0x5000, false, 0);
    cache.access(0x1000, 0x5000, false, 10);
    cache.access(0x9000, 0x9000, false, 20);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(CacheFixture, ProbeDirtyDistinguishesCleanLines)
{
    cache.access(0x1000, 0x5000, false, 0);
    EXPECT_FALSE(cache.probeDirty(0x1000, 0x5000));
    cache.access(0x1000, 0x5000, true, 10);
    EXPECT_TRUE(cache.probeDirty(0x1000, 0x5000));
}

TEST(CacheConfigTest, RejectsNonPowerOf2Size)
{
    stats::StatGroup g("t");
    FakeBackend backend;
    CacheConfig c;
    c.sizeBytes = 100000;
    EXPECT_THROW(Cache(c, backend, g), FatalError);
}

TEST(CacheGeometry, PaperConfigHas16KLines)
{
    stats::StatGroup g("t");
    FakeBackend backend;
    Cache cache(CacheConfig{}, backend, g);   // 512 KB default
    EXPECT_EQ(cache.numLines(), 512u * 1024 / 32);
}

/* ------------------------------------------------------------------ */
/* Physically indexed mode (the recoloring configuration, §6)          */
/* ------------------------------------------------------------------ */

namespace
{

struct PhysIndexedFixture : ::testing::Test
{
    PhysIndexedFixture() : group("t"), cache(config(), backend, group)
    {}

    static CacheConfig
    config()
    {
        CacheConfig c;
        c.sizeBytes = 64 * 1024;
        c.virtuallyIndexed = false;
        return c;
    }

    stats::StatGroup group;
    FakeBackend backend;
    Cache cache;
};

} // namespace

TEST_F(PhysIndexedFixture, IndexComesFromPhysicalAddress)
{
    // Same physical line via two different virtual addresses: in
    // physically indexed mode they share one slot, so the second
    // access hits.
    cache.access(0x1000, 0x5000, false, 0);
    const auto r = cache.access(0x2000, 0x5000, false, 10);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(backend.fills.size(), 1u);
}

TEST_F(PhysIndexedFixture, PhysicalConflictsThrash)
{
    // Two physical lines 64 KB apart collide regardless of their
    // virtual placement.
    cache.access(0x1000, 0x05000, false, 0);
    cache.access(0x9000, 0x15000, false, 10);   // same phys index
    const auto r = cache.access(0x1000, 0x05000, false, 20);
    EXPECT_FALSE(r.hit);
}

TEST_F(PhysIndexedFixture, DifferentPhysicalColorsCoexist)
{
    cache.access(0x1000, 0x05000, false, 0);
    cache.access(0x9000, 0x06000, false, 10);   // different index
    EXPECT_TRUE(cache.access(0x1000, 0x05000, false, 20).hit);
    EXPECT_TRUE(cache.access(0x9000, 0x06000, false, 30).hit);
}

TEST_F(PhysIndexedFixture, FlushPageProbesPhysicalIndices)
{
    cache.access(0x1000, 0x5000, true, 0);
    cache.access(0x1020, 0x5020, true, 10);
    backend.writeBacks.clear();
    // Flush by (vaddr, paddr): in physical mode the probe loop must
    // find the lines through their physical indices.
    cache.flushPage(0x1000, 0x5000, 100);
    EXPECT_EQ(backend.writeBacks.size(), 2u);
    EXPECT_FALSE(cache.probe(0x1000, 0x5000));
}
