/**
 * @file
 * Tests for the MMC-resident stream buffers (§6 future work).
 */

#include <gtest/gtest.h>

#include "mmc/memsys.hh"
#include "mmc/stream_buffer.hh"
#include "sim/system.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;

StreamBufferConfig
enabled(unsigned buffers = 4, unsigned depth = 4)
{
    StreamBufferConfig c;
    c.enabled = true;
    c.numBuffers = buffers;
    c.depth = depth;
    return c;
}

} // namespace

TEST(StreamBufferTest, DisabledNeverHits)
{
    stats::StatGroup g("t");
    StreamBufferBank bank(StreamBufferConfig{}, g);
    for (Addr a = 0; a < 1024; a += 32)
        EXPECT_FALSE(bank.lookup(a));
    EXPECT_EQ(bank.hits(), 0u);
}

TEST(StreamBufferTest, SequentialStreamHitsAfterDetection)
{
    stats::StatGroup g("t");
    StreamBufferBank bank(enabled(), g);
    // First two misses establish the stream; from the third line on
    // the buffer serves.
    EXPECT_FALSE(bank.lookup(0x1000));
    EXPECT_FALSE(bank.lookup(0x1020));
    bank.drainPrefetches();
    EXPECT_TRUE(bank.lookup(0x1040));
    EXPECT_TRUE(bank.lookup(0x1060));
    EXPECT_TRUE(bank.lookup(0x1080));
}

TEST(StreamBufferTest, RandomAccessesNeverAllocate)
{
    stats::StatGroup g("t");
    StreamBufferBank bank(enabled(), g);
    Random rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(bank.lookup(rng.below(1 << 20) << 7));
    EXPECT_EQ(bank.hits(), 0u);
}

TEST(StreamBufferTest, MultipleConcurrentStreams)
{
    stats::StatGroup g("t");
    StreamBufferBank bank(enabled(4), g);
    // Interleave four sequential streams; after detection each keeps
    // hitting despite the interleaving.
    const Addr bases[] = {0x10000, 0x20000, 0x30000, 0x40000};
    // Detection pass: two sequential misses each. Streams must be
    // consecutive in the miss history, so run them one at a time.
    for (const Addr base : bases) {
        bank.lookup(base);
        bank.lookup(base + 32);
    }
    unsigned hit_count = 0;
    for (unsigned i = 2; i < 10; ++i) {
        for (const Addr base : bases) {
            if (bank.lookup(base + i * 32))
                ++hit_count;
        }
    }
    EXPECT_EQ(hit_count, 32u);
}

TEST(StreamBufferTest, LruVictimOnFifthStream)
{
    stats::StatGroup g("t");
    StreamBufferBank bank(enabled(2), g);
    // Allocate streams A and B, then C: A (least recently used) is
    // the victim.
    bank.lookup(0x10000);
    bank.lookup(0x10020);       // A allocated
    bank.lookup(0x20000);
    bank.lookup(0x20020);       // B allocated
    EXPECT_TRUE(bank.lookup(0x20040));  // B used (A is LRU)
    bank.lookup(0x30000);
    bank.lookup(0x30020);       // C replaces A
    EXPECT_FALSE(bank.lookup(0x10040)); // A is gone
    EXPECT_TRUE(bank.lookup(0x30040));  // C lives
}

TEST(StreamBufferTest, InvalidateAllForgetsStreams)
{
    stats::StatGroup g("t");
    StreamBufferBank bank(enabled(), g);
    bank.lookup(0x1000);
    bank.lookup(0x1020);
    bank.invalidateAll();
    EXPECT_FALSE(bank.lookup(0x1040));
}

TEST(StreamBufferTest, PrefetchesAreBounded)
{
    stats::StatGroup g("t");
    StreamBufferBank bank(enabled(4, 4), g);
    bank.lookup(0x1000);
    bank.lookup(0x1020);
    const auto pf = bank.drainPrefetches();
    EXPECT_EQ(pf.size(), 4u);           // depth lines primed
    EXPECT_TRUE(bank.drainPrefetches().empty());
}

TEST(StreamBufferMmc, SequentialFillsGetFaster)
{
    // End-to-end: a sequential fill stream through the MMC costs
    // less per fill once the buffers kick in.
    PhysMap map(64 * MB, {0x80000000, 512 * MB}, 32);
    MmcConfig config;
    config.streamBuffers = enabled();
    stats::StatGroup g("t");
    Mmc mmc(config, map, g);

    Cycles first_two = 0, later = 0;
    for (unsigned i = 0; i < 16; ++i) {
        const auto r = mmc.service(MmcOp::SharedFill,
                                   0x100000 + i * cacheLineSize);
        (i < 2 ? first_two : later) += r.mmcCycles;
    }
    EXPECT_LT(later / 14, first_two / 2);
    EXPECT_GT(mmc.streamBuffers().hits(), 10u);
}

TEST(StreamBufferMmc, WorksDownstreamOfTheMtlb)
{
    // A sequential stream through *shadow* addresses must also hit:
    // the buffers operate on post-translation real addresses (§6's
    // point about putting them in the MMC).
    PhysMap map(64 * MB, {0x80000000, 512 * MB}, 32);
    MmcConfig config;
    config.streamBuffers = enabled();
    stats::StatGroup g("t");
    Mmc mmc(config, map, g);

    // Shadow pages 0 and 1 -> two *consecutive* real frames, so the
    // real-address stream crosses the page boundary seamlessly.
    TranslationEdit edit = detachedEdit();
    mmc.setShadowMapping(0, 0x1000, edit);
    mmc.setShadowMapping(1, 0x1001, edit);
    unsigned hits = 0;
    for (Addr off = 0; off < 2 * basePageSize; off += cacheLineSize) {
        mmc.service(MmcOp::SharedFill, 0x80000000 + off);
    }
    hits = static_cast<unsigned>(mmc.streamBuffers().hits());
    EXPECT_GT(hits, 200u);  // 256 lines, nearly all buffered
}

TEST(StreamBufferSystem, SequentialWorkloadSpeedsUp)
{
    auto run = [](bool buffers) {
        SystemConfig config;
        config.installedBytes = 64 * MB;
        config.streamBuffers = enabled();
        config.streamBuffers.enabled = buffers;
        System sys(config);
        sys.kernel().addressSpace().addRegion("data", 0x10000000,
                                              4 * MB, {});
        sys.cpu().remap(0x10000000, 4 * MB);
        for (Addr off = 0; off < 4 * MB; off += 32) {
            sys.cpu().execute(2);
            sys.cpu().load(0x10000000 + off);
        }
        return sys.totalCycles();
    };
    EXPECT_LT(run(true), run(false));
}
