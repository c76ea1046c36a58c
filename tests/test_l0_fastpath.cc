/**
 * @file
 * Tests for the level-0 translation fast path: Cpu::translate()
 * serving TLB hits from the TLB's page memo (src/tlb/tlb.hh PageMemo).
 *
 * Two obligations: (1) every path that mutates translation state —
 * purge, superpage promotion, recoloring, swap-out with its MTLB
 * flush, NRU aging — retires the memoized pages it may affect, and
 * dropping one base-page entry retires that page alone; (2) the fast
 * path is invisible to the simulation: a machine with
 * cpu.batch_enable on produces byte-identical statistics to the plain
 * path, on real workloads (one thrashing a 64-entry TLB) and on a
 * randomized access trace.
 * The batched-run replay on the same memo is tested in
 * tests/test_batch_engine.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "equivalence.hh"
#include "sim/system.hh"
#include "sweep/matrix.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;
using namespace mtlbsim::testeq;

namespace
{

/** An 8-entry TLB, so a handful of pages fills it. */
SystemConfig
smallTlbMachine()
{
    SystemConfig c = machine(true);
    c.tlbEntries = 8;
    return c;
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

TEST(L0FastPath, EvictingABasePageRetiresOnlyItsSlot)
{
    System sys(smallTlbMachine());
    sys.kernel().addressSpace().addRegion("data", dataBase, MB, {});
    auto page = [](unsigned i) { return dataBase + i * basePageSize; };

    // Fill the TLB, then miss once more: the NRU aging pass clears
    // every referenced bit and evicts one page.
    for (unsigned i = 0; i <= 8; ++i)
        sys.cpu().load(page(i));
    // Re-reference every survivor but one, which memoizes them again
    // and leaves exactly one unreferenced entry: the next victim.
    unsigned victim = 8;
    for (unsigned i = 0; i < 8; ++i) {
        const auto e = sys.tlb().probe(page(i));
        if (!e)
            continue;                   // evicted by the aging pass
        if (victim == 8) {
            victim = i;                 // left unreferenced
            continue;
        }
        sys.cpu().load(page(i));
    }
    ASSERT_LT(victim, 8u);
    std::vector<Addr> memoized;
    for (unsigned i = 0; i <= 8; ++i) {
        if (liveEntry(sys, page(i)))
            memoized.push_back(page(i));
    }
    ASSERT_EQ(memoized.size(), 7u);

    // A miss evicts the victim without an aging pass: every other
    // memoized page stays live, the new one joins them.
    sys.cpu().load(page(9));
    EXPECT_FALSE(sys.tlb().probe(page(victim)).has_value());
    for (const Addr va : memoized)
        EXPECT_NE(liveEntry(sys, va), nullptr) << std::hex << va;
    EXPECT_NE(liveEntry(sys, page(9)), nullptr);

    // Dropping a memoized base page retires its slot alone.
    sys.tlb().purgeRange(memoized.front(), basePageSize);
    EXPECT_EQ(liveEntry(sys, memoized.front()), nullptr);
    for (std::size_t i = 1; i < memoized.size(); ++i)
        EXPECT_NE(liveEntry(sys, memoized[i]), nullptr);
    EXPECT_NE(liveEntry(sys, page(9)), nullptr);
    sys.audit();
}

TEST(L0FastPath, NruAgingPassRetiresEverySlot)
{
    System sys(smallTlbMachine());
    sys.kernel().addressSpace().addRegion("data", dataBase, MB, {});
    auto page = [](unsigned i) { return dataBase + i * basePageSize; };
    for (unsigned i = 0; i < 8; ++i)
        sys.cpu().load(page(i));
    for (unsigned i = 0; i < 8; ++i)
        ASSERT_NE(liveEntry(sys, page(i)), nullptr);

    // Every entry is referenced, so this miss ages them all: a live
    // memo entry promises a set referenced bit, so none may survive.
    sys.cpu().load(page(8));
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(liveEntry(sys, page(i)), nullptr);
        if (const auto e = sys.tlb().probe(page(i))) {
            EXPECT_FALSE(e->referenced);
        }
    }
    EXPECT_NE(liveEntry(sys, page(8)), nullptr);
    sys.audit();
}

TEST(L0FastPath, DroppingASuperpageRetiresEverySlot)
{
    System sys(machine(true));
    sys.kernel().addressSpace().addRegion("super", dataBase, MB, {});
    // 6 MB away: its pages use other memo slots than dataBase's.
    const Addr other = dataBase + 6 * MB;
    sys.kernel().addressSpace().addRegion("base", other, MB, {});
    sys.cpu().remap(dataBase, MB);
    sys.cpu().load(dataBase);
    const auto sp = sys.tlb().probe(dataBase);
    ASSERT_TRUE(sp.has_value());
    ASSERT_GT(sp->sizeClass, 0u);
    for (Addr off = 0; off < 4 * basePageSize; off += basePageSize)
        sys.cpu().load(other + off);
    ASSERT_NE(liveEntry(sys, dataBase), nullptr);
    ASSERT_NE(liveEntry(sys, other), nullptr);

    // The superpage entry may back many memo slots, so dropping it —
    // here by purging one page it covers — retires them all, even
    // the base pages it never backed.
    sys.tlb().purgeRange(dataBase + basePageSize, basePageSize);
    EXPECT_FALSE(sys.tlb().probe(dataBase).has_value());
    EXPECT_EQ(liveEntry(sys, dataBase), nullptr);
    for (Addr off = 0; off < 4 * basePageSize; off += basePageSize)
        EXPECT_EQ(liveEntry(sys, other + off), nullptr);
    sys.audit();
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

TEST(L0FastPath, DifferentialTlbThrashingStatsIdentical)
{
    // Fig 3's small-TLB baseline (64 entries, no MTLB): misses evict
    // base pages all the time, so precise memo retirement is on the
    // hot path. The fast path must still be invisible.
    for (const char *name : {"em3d", "compress95"}) {
        SystemConfig off = sweep::paperConfig(64, false);
        off.cpu.batchEnable = false;
        SystemConfig on = off;
        on.cpu.batchEnable = true;
        testeq::expectConfigsEquivalent(
            off, on,
            [name](System &sys) {
                auto workload = makeWorkload(name, 0.02);
                workload->setup(sys);
                workload->run(sys);
            },
            name);
    }
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
