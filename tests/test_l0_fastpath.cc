/**
 * @file
 * Tests for the level-0 translation fast path: Cpu::translate()
 * serving TLB hits from the per-core page memo (src/cpu/cpu.hh).
 *
 * Two obligations: (1) every kernel path that mutates translation
 * state — purge, superpage promotion, recoloring, swap-out with its
 * MTLB flush — retires the memoized pages through the translation
 * epoch; (2) the fast path is invisible to the simulation: a machine
 * with cpu.batch_enable on produces byte-identical statistics to the
 * plain path, on a real workload and on a randomized access trace.
 * The batched-run replay on the same memo is tested in
 * tests/test_batch_engine.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "equivalence.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;
constexpr Addr dataBase = 0x10000000;

SystemConfig
machine(bool batch_on)
{
    SystemConfig c;
    c.installedBytes = 64 * MB;
    c.cpu.batchEnable = batch_on;
    return c;
}

/** Core 0's live memo entry covering @p va, or null. */
const PageMemo::Entry *
liveEntry(System &sys, Addr va)
{
    return sys.cpu().memo().live(va, sys.tlb().translationEpoch());
}

} // namespace

TEST(L0FastPath, MemoHoldsTheTlbTranslation)
{
    System sys(machine(true));
    sys.kernel().addressSpace().addRegion("data", dataBase, MB, {});

    sys.cpu().load(dataBase);           // slow path fills the memo
    const PageMemo::Entry *e = liveEntry(sys, dataBase);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->vpage, dataBase >> basePageShift);
    const auto tlb_entry = sys.tlb().probe(dataBase);
    ASSERT_TRUE(tlb_entry.has_value());
    EXPECT_EQ(e->pframeBase, pageBase(tlb_entry->translate(dataBase)));
    EXPECT_EQ(e->writable, tlb_entry->prot.writable);
}

TEST(L0FastPath, PurgeInvalidates)
{
    System sys(machine(true));
    sys.kernel().addressSpace().addRegion("data", dataBase, MB, {});
    sys.cpu().load(dataBase);
    ASSERT_NE(liveEntry(sys, dataBase), nullptr);

    sys.tlb().purgeRange(dataBase, basePageSize);
    EXPECT_EQ(liveEntry(sys, dataBase), nullptr);
}

TEST(L0FastPath, PromotionInvalidates)
{
    System sys(machine(true));
    sys.kernel().addressSpace().addRegion("data", dataBase, 2 * MB, {});

    // Memoize base-page translations, then promote the range to a
    // shadow superpage.
    for (Addr off = 0; off < MB; off += basePageSize)
        sys.cpu().load(dataBase + off);
    ASSERT_NE(liveEntry(sys, dataBase + MB - basePageSize), nullptr);

    sys.cpu().remap(dataBase, MB);
    EXPECT_EQ(liveEntry(sys, dataBase), nullptr);
    EXPECT_EQ(liveEntry(sys, dataBase + MB - basePageSize), nullptr);
    ASSERT_FALSE(sys.kernel().addressSpace().superpages().empty());
}

TEST(L0FastPath, RecoloringInvalidates)
{
    SystemConfig config = machine(true);
    config.cache.virtuallyIndexed = false;  // recoloring's habitat
    System sys(config);
    sys.kernel().addressSpace().addRegion("data", dataBase, MB, {});
    sys.cpu().load(dataBase);
    ASSERT_NE(liveEntry(sys, dataBase), nullptr);

    const unsigned color = sys.kernel().colorOf(dataBase);
    sys.kernel().recolorPage(dataBase, (color + 1) % 128,
                             sys.cpu().now());
    EXPECT_EQ(liveEntry(sys, dataBase), nullptr);
}

TEST(L0FastPath, SwapOutMtlbFlushInvalidates)
{
    System sys(machine(true));
    sys.kernel().addressSpace().addRegion("data", dataBase, MB, {});
    sys.cpu().remap(dataBase, MB);
    sys.cpu().load(dataBase);
    ASSERT_NE(liveEntry(sys, dataBase), nullptr);

    // Swap-out frees the frames behind an unchanged TLB entry: the
    // memoized shadow translation would target a faulting page.
    sys.kernel().swapOutSuperpagePagewise(dataBase, sys.cpu().now());
    EXPECT_EQ(liveEntry(sys, dataBase), nullptr);
}

TEST(L0FastPath, DifferentialWorkloadStatsIdentical)
{
    testeq::expectConfigsEquivalent(
        machine(false), machine(true),
        [](System &sys) {
            auto workload = makeWorkload("em3d", 0.02);
            workload->setup(sys);
            workload->run(sys);
        },
        "em3d");
}

TEST(L0FastPath, DifferentialRandomTraceStatsIdentical)
{
    // Randomized loads/stores with interleaved promotion, swap-out
    // and purge, driven by a deterministic LCG: every
    // translation-mutating path fires while the memo is hot.
    auto drive = [](System &sys) {
        sys.kernel().addressSpace().addRegion("data", dataBase,
                                              8 * MB, {});
        std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
        auto next = [&lcg]() {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            return lcg >> 33;
        };
        for (int i = 0; i < 20000; ++i) {
            const Addr va = dataBase + (next() % (8 * MB));
            if (next() % 3 == 0)
                sys.cpu().store(va);
            else
                sys.cpu().load(va);
            if (i == 5000)
                sys.cpu().remap(dataBase, MB);
            if (i == 10000)
                sys.kernel().swapOutSuperpagePagewise(
                    dataBase, sys.cpu().now());
            if (i == 15000)
                sys.tlb().purgeRange(dataBase + 2 * MB, MB);
        }
    };
    testeq::expectConfigsEquivalent(machine(false), machine(true), drive,
                                    "random trace");
}
