/**
 * @file
 * Unit tests for the kernel: TLB-miss handling, demand zero,
 * remap() superpage creation, sbrk() preallocation, and
 * per-base-page swapping.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mmc/memsys.hh"
#include "os/kernel.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;

struct KernelFixture : ::testing::Test
{
    KernelFixture(bool with_mtlb = true)
        : map(64 * MB,
              with_mtlb ? AddrRange{0x80000000, 512 * MB}
                        : AddrRange{},
              32),
          group("t"),
          memsys(BusConfig{}, mmcConfig(with_mtlb), map, group),
          cache(CacheConfig{}, memsys, group),
          tlb(96, "tlb", group), uitlb(group),
          kernel(KernelConfig{}, map, cache, memsys, group)
    {
        kernel.attachCore(tlb, uitlb, {});
    }

    static MmcConfig
    mmcConfig(bool with_mtlb)
    {
        MmcConfig c;
        c.hasMtlb = with_mtlb;
        return c;
    }

    /** Declare a simple data region. */
    void
    addData(Addr base = 0x10000000, Addr size = 16 * MB)
    {
        kernel.addressSpace().addRegion("data", base, size, {});
    }

    PhysMap map;
    stats::StatGroup group;
    MemorySystem memsys;
    Cache cache;
    Tlb tlb;
    MicroItlb uitlb;
    Kernel kernel;
};

struct KernelNoMtlbFixture : KernelFixture
{
    KernelNoMtlbFixture() : KernelFixture(false) {}
};

} // namespace

TEST_F(KernelFixture, TlbMissMaterialisesPageAndFillsTlb)
{
    addData();
    const Cycles cost =
        kernel.handleTlbMiss(0x10000123, AccessType::Read, 0).cycles;
    EXPECT_GT(cost, 0u);
    const auto r = tlb.lookup(0x10000123, AccessType::Read,
                              AccessMode::User);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(kernel.addressSpace().isPagePresent(0x10000123));
}

TEST_F(KernelFixture, SecondMissOnSamePageIsCheaper)
{
    addData();
    const Cycles first =
        kernel.handleTlbMiss(0x10000000, AccessType::Read, 0).cycles;
    tlb.purgeAll();
    const Cycles second =
        kernel.handleTlbMiss(0x10000000, AccessType::Read, 1000).cycles;
    // First miss pays demand-zero; the second only probes the HPT.
    EXPECT_LT(second, first / 2);
}

TEST_F(KernelFixture, SegfaultIsFatal)
{
    addData();
    EXPECT_THROW(kernel.handleTlbMiss(0x70000000, AccessType::Read, 0),
                 FatalError);
}

TEST_F(KernelFixture, DemandZeroCountsPages)
{
    addData();
    kernel.handleTlbMiss(0x10000000, AccessType::Read, 0);
    kernel.handleTlbMiss(0x10001000, AccessType::Read, 1000);
    EXPECT_EQ(kernel.addressSpace().numPresentPages(), 2u);
}

TEST_F(KernelFixture, RemapCreatesMaximalSuperpages)
{
    addData();
    // 1 MB + 16 KB, 1 MB aligned: expect one 1 MB superpage, then
    // one 16 KB superpage.
    kernel.remap(0x10000000, MB + 16 * 1024, 0);
    const auto &sps = kernel.addressSpace().superpages();
    ASSERT_EQ(sps.size(), 2u);
    auto it = sps.begin();
    EXPECT_EQ(it->second.sizeClass, 4u);    // 1 MB
    ++it;
    EXPECT_EQ(it->second.sizeClass, 1u);    // 16 KB
}

TEST_F(KernelFixture, RemapSkipsUnalignedHead)
{
    addData();
    // Start 4 KB into a 16 KB grain: the sub-16 KB head stays
    // base-paged (§2.4).
    kernel.remap(0x10001000, 64 * 1024, 0);
    const auto &sps = kernel.addressSpace().superpages();
    ASSERT_GE(sps.size(), 1u);
    EXPECT_EQ(sps.begin()->first, 0x10004000u);
    EXPECT_EQ(kernel.addressSpace().findSuperpage(0x10001000),
              nullptr);
}

TEST_F(KernelFixture, RemapInstallsMmcMappings)
{
    addData();
    kernel.remap(0x10000000, 16 * 1024, 0);
    const ShadowSuperpage *sp =
        kernel.addressSpace().findSuperpage(0x10000000);
    ASSERT_NE(sp, nullptr);
    // Every base page of the superpage must translate through the
    // MMC to the frame backing the original page.
    const Addr spi0 = map.shadowPageIndex(sp->shadowBase);
    for (Addr i = 0; i < sp->numBasePages(); ++i) {
        const ShadowPte pte = memsys.mmc().shadowTable().entry(spi0 + i);
        EXPECT_TRUE(pte.valid);
        EXPECT_EQ(pte.realPfn,
                  kernel.addressSpace().frameOf(0x10000000 +
                                                (i << basePageShift)));
    }
}

TEST_F(KernelFixture, RemapFillsTlbViaMissWithSuperpageEntry)
{
    addData();
    kernel.remap(0x10000000, 16 * 1024, 0);
    kernel.handleTlbMiss(0x10002000, AccessType::Read, 0);
    const auto entry = tlb.probe(0x10002000);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->sizeClass, 1u);
    const ShadowSuperpage *sp =
        kernel.addressSpace().findSuperpage(0x10000000);
    EXPECT_EQ(entry->pbase, sp->shadowBase);
}

TEST_F(KernelFixture, RemapPurgesStaleTlbEntries)
{
    addData();
    // Touch the page so a base-page TLB entry exists.
    kernel.handleTlbMiss(0x10000000, AccessType::Read, 0);
    EXPECT_TRUE(tlb.probe(0x10000000).has_value());
    kernel.remap(0x10000000, 16 * 1024, 1000);
    // Old base-page mapping must be gone (superpage inserted on next
    // miss instead).
    const auto entry = tlb.probe(0x10000000);
    EXPECT_FALSE(entry.has_value());
}

TEST_F(KernelFixture, RemapFlushesCachedLines)
{
    addData();
    kernel.handleTlbMiss(0x10000000, AccessType::Read, 0);
    const Addr pfn = kernel.addressSpace().frameOf(0x10000000);
    const Addr paddr = pfn << basePageShift;
    cache.access(0x10000000, paddr, true, 100);
    EXPECT_TRUE(cache.probe(0x10000000, paddr));
    kernel.remap(0x10000000, 16 * 1024, 1000);
    EXPECT_FALSE(cache.probe(0x10000000, paddr));
}

TEST_F(KernelFixture, RemapIsIdempotent)
{
    addData();
    kernel.remap(0x10000000, 64 * 1024, 0);
    const auto count = kernel.addressSpace().superpages().size();
    kernel.remap(0x10000000, 64 * 1024, 1000);
    EXPECT_EQ(kernel.addressSpace().superpages().size(), count);
}

TEST_F(KernelFixture, RemapChargesFlushCycles)
{
    addData();
    // Materialise 4 pages first so remap only flushes.
    for (Addr off = 0; off < 4; ++off)
        kernel.handleTlbMiss(0x10000000 + (off << basePageShift),
                             AccessType::Read, 0);
    kernel.remap(0x10000000, 16 * 1024, 1000);
    // §3.3: ~1,400 cycles per 4 KB page of flushing.
    const Cycles flush = kernel.remapFlushCycles();
    EXPECT_GE(flush, 4 * 1000u);
    EXPECT_LE(flush, 4 * 2500u);
    EXPECT_GT(kernel.remapTotalCycles(), flush);
}

TEST_F(KernelFixture, RemapRangeCrossingRegionEndIsFatal)
{
    kernel.addressSpace().addRegion("small", 0x10000000, 8 * 1024, {});
    EXPECT_THROW(kernel.remap(0x10000000, 64 * 1024, 0), FatalError);
}

TEST_F(KernelNoMtlbFixture, RemapIsAdvisoryWithoutMtlb)
{
    addData();
    const Cycles cost = kernel.remap(0x10000000, MB, 0);
    EXPECT_GT(cost, 0u);
    EXPECT_TRUE(kernel.addressSpace().superpages().empty());
    // Misses keep producing base-page entries.
    kernel.handleTlbMiss(0x10000000, AccessType::Read, 0);
    EXPECT_EQ(tlb.probe(0x10000000)->sizeClass, 0u);
}

TEST_F(KernelFixture, SuperpagePolicyCanBeDisabled)
{
    // Without a shadow region the kernel has no shadow allocator, so
    // remap() is advisory even in front of an MTLB.
    const PhysMap bare(64 * MB, AddrRange{});
    stats::StatGroup g2("t2");
    Kernel plain(KernelConfig{}, bare, cache, memsys, g2);
    plain.attachCore(tlb, uitlb, {});
    plain.addressSpace().addRegion("data", 0x10000000, MB, {});
    plain.remap(0x10000000, MB, 0);
    EXPECT_TRUE(plain.addressSpace().superpages().empty());
}

TEST_F(KernelFixture, SbrkGrantsAndPreallocates)
{
    kernel.initHeap(0x20000000, 64 * MB);
    const auto r1 = kernel.sbrk(1000, 0);
    EXPECT_EQ(r1.oldBreak, 0x20000000u);
    // The 8 MB default preallocation was remapped in one go.
    EXPECT_FALSE(kernel.addressSpace().superpages().empty());
    const Cycles first_cost = r1.cycles;

    // Subsequent small requests are satisfied without kernel work.
    const auto r2 = kernel.sbrk(1000, 1000);
    EXPECT_EQ(r2.oldBreak, 0x20000000u + 1000);
    EXPECT_LT(r2.cycles, 100u);
    EXPECT_LT(r2.cycles, first_cost);
}

TEST_F(KernelFixture, SbrkPreallocSizeIsAdjustable)
{
    kernel.initHeap(0x20000000, 64 * MB);
    kernel.setSbrkPrealloc(64 * 1024);
    kernel.sbrk(1000, 0);
    // Only ~64 KB remapped: the frontier is close to the break.
    Addr covered = 0;
    for (const auto &[vbase, sp] :
         kernel.addressSpace().superpages())
        covered += sp.size();
    EXPECT_LE(covered, 128 * 1024u);
}

TEST_F(KernelFixture, SbrkBeyondReservationIsFatal)
{
    kernel.initHeap(0x20000000, MB);
    EXPECT_THROW(kernel.sbrk(2 * MB, 0), FatalError);
}

TEST_F(KernelFixture, SbrkWithoutInitIsFatal)
{
    EXPECT_THROW(kernel.sbrk(1000, 0), FatalError);
}

TEST_F(KernelFixture, PagewiseSwapWritesOnlyDirtyPages)
{
    addData();
    kernel.remap(0x10000000, 64 * 1024, 0);     // 16 base pages

    // Dirty exactly 3 base pages through the memory system (as the
    // cache would: exclusive fills).
    const ShadowSuperpage *sp =
        kernel.addressSpace().findSuperpage(0x10000000);
    for (unsigned i = 0; i < 3; ++i)
        memsys.lineFill(sp->shadowBase + i * basePageSize, true, 0);
    // And read (not write) 2 more.
    for (unsigned i = 3; i < 5; ++i)
        memsys.lineFill(sp->shadowBase + i * basePageSize, false, 0);

    const auto result =
        kernel.swapOutSuperpagePagewise(0x10000000, 10000);
    EXPECT_EQ(result.pagesWritten, 3u);     // only dirty ones (§2.5)
    EXPECT_EQ(result.pagesClean, 13u);
}

TEST_F(KernelFixture, WholeSwapWritesEveryPage)
{
    addData();
    kernel.remap(0x10000000, 64 * 1024, 0);
    const auto result =
        kernel.swapOutSuperpageWhole(0x10000000, 10000);
    EXPECT_EQ(result.pagesWritten, 16u);    // conventional superpage
    EXPECT_EQ(result.pagesClean, 0u);
}

TEST_F(KernelFixture, PagewiseSwapFlushesCacheBeforeReadingDirtyBit)
{
    // A store that hits a shared-filled line dirties it in the cache
    // with no memory traffic at all: the modification reaches the
    // MTLB only when the line is written back. The pagewise swap
    // must therefore flush the page's lines *before* reading the
    // dirty bit — reading first would see a stale clean bit and
    // drop the page's data.
    addData();
    kernel.remap(0x10000000, 64 * 1024, 0);
    const ShadowSuperpage *sp =
        kernel.addressSpace().findSuperpage(0x10000000);

    cache.access(0x10000000, sp->shadowBase, false, 0);  // shared fill
    cache.access(0x10000000, sp->shadowBase, true, 10);  // silent hit

    const auto result =
        kernel.swapOutSuperpagePagewise(0x10000000, 10000);
    EXPECT_EQ(result.pagesWritten, 1u);
    EXPECT_EQ(result.pagesClean, 15u);
}

TEST_F(KernelFixture, WholeSwapWritesOnlyPresentPages)
{
    // The conventional-superpage flavour writes every *present* page
    // regardless of dirtiness; pages already on disk are skipped.
    addData();
    kernel.remap(0x10000000, 64 * 1024, 0);
    kernel.swapOutSuperpagePagewise(0x10000000, 10000);

    // Reload exactly one base page.
    kernel.handleShadowPageFault(0x10000000 + 3 * basePageSize, 20000);

    const auto result =
        kernel.swapOutSuperpageWhole(0x10000000, 30000);
    EXPECT_EQ(result.pagesWritten, 1u);
    EXPECT_EQ(result.pagesClean, 0u);
}

TEST_F(KernelFixture, PagewiseSwapSeesMtlbDeferredDirtyBits)
{
    // The dirty bit may still be deferred in the MTLB (never synced
    // to the in-DRAM table) when the swap runs; readShadowEntry must
    // surface it anyway.
    addData();
    kernel.remap(0x10000000, 16 * 1024, 0);
    const ShadowSuperpage *sp =
        kernel.addressSpace().findSuperpage(0x10000000);
    memsys.lineFill(sp->shadowBase + basePageSize, true, 0);

    const auto result =
        kernel.swapOutSuperpagePagewise(0x10000000, 10000);
    EXPECT_EQ(result.pagesWritten, 1u);
    EXPECT_EQ(result.pagesClean, 3u);
}

TEST_F(KernelFixture, RemapNeverSpansAnExistingSuperpage)
{
    // Regression (found by the differential fuzzer): a remap whose
    // maximal aligned chunk would swallow a superpage that starts
    // *inside* the chunk must cap the chunk instead — building over
    // it would double-map every frame the old superpage covers.
    addData();
    kernel.remap(0x100c4000, 16 * 1024, 0);      // 16 KB superpage
    kernel.remap(0x100b4000, 256 * 1024, 0);     // spans it

    // The original superpage survives untouched...
    const ShadowSuperpage *old_sp =
        kernel.addressSpace().findSuperpage(0x100c4000);
    ASSERT_NE(old_sp, nullptr);
    EXPECT_EQ(old_sp->vbase, 0x100c4000u);
    EXPECT_EQ(old_sp->sizeClass, 1u);

    // ...and no two superpage records overlap.
    Addr prev_end = 0;
    for (const auto &[vbase, sp] :
         kernel.addressSpace().superpages()) {
        EXPECT_GE(vbase, prev_end);
        prev_end = vbase + sp.size();
    }

    // Every shadow PTE maps a distinct real frame.
    std::set<Addr> frames;
    for (const auto &[vbase, sp] :
         kernel.addressSpace().superpages()) {
        const Addr spi0 = map.shadowPageIndex(sp.shadowBase);
        for (Addr i = 0; i < sp.numBasePages(); ++i) {
            const ShadowPte pte =
                memsys.mmc().shadowTable().entry(spi0 + i);
            if (!pte.valid)
                continue;
            EXPECT_TRUE(frames.insert(pte.realPfn).second)
                << "frame 0x" << std::hex << pte.realPfn
                << " double-mapped";
        }
    }
}

TEST_F(KernelFixture, SwapLeavesTlbSuperpageEntryIntact)
{
    addData();
    kernel.remap(0x10000000, 16 * 1024, 0);
    kernel.handleTlbMiss(0x10000000, AccessType::Read, 0);
    kernel.swapOutSuperpagePagewise(0x10000000, 10000);
    // §2.1: the superpage TLB entry survives; the MMC faults instead.
    EXPECT_TRUE(tlb.probe(0x10000000).has_value());
}

TEST_F(KernelFixture, ShadowPageFaultReloadsPage)
{
    addData();
    kernel.remap(0x10000000, 16 * 1024, 0);
    const ShadowSuperpage *sp =
        kernel.addressSpace().findSuperpage(0x10000000);
    const Addr shadow0 = sp->shadowBase;
    kernel.swapOutSuperpagePagewise(0x10000000, 10000);

    // An access now faults at the MMC.
    memsys.lineFill(shadow0, false, 20000);
    EXPECT_TRUE(memsys.faulted());

    // The kernel reloads the page; the access then succeeds.
    const Cycles cost = kernel.handleShadowPageFault(0x10000000, 20000);
    EXPECT_GE(cost, kernel.config().diskReadCycles);
    memsys.lineFill(shadow0, false, 30000);
    EXPECT_FALSE(memsys.faulted());
}

TEST_F(KernelFixture, SwapInGetsFreshFrame)
{
    addData();
    kernel.remap(0x10000000, 16 * 1024, 0);
    const Addr old_pfn = kernel.addressSpace().frameOf(0x10000000);
    kernel.swapOutSuperpagePagewise(0x10000000, 10000);
    EXPECT_FALSE(kernel.addressSpace().isPagePresent(0x10000000));
    kernel.handleShadowPageFault(0x10000000, 20000);
    EXPECT_TRUE(kernel.addressSpace().isPagePresent(0x10000000));
    // (The frame may or may not differ; what matters is the MMC
    // mapping points at whatever frame is installed now.)
    const ShadowSuperpage *sp =
        kernel.addressSpace().findSuperpage(0x10000000);
    const ShadowPte pte = memsys.mmc().shadowTable().entry(
        map.shadowPageIndex(sp->shadowBase));
    EXPECT_TRUE(pte.valid);
    EXPECT_EQ(pte.realPfn, kernel.addressSpace().frameOf(0x10000000));
    (void)old_pfn;
}

TEST_F(KernelFixture, TlbMissCyclesAccumulate)
{
    addData();
    EXPECT_EQ(kernel.tlbMissCycles(), 0u);
    kernel.handleTlbMiss(0x10000000, AccessType::Read, 0);
    const Cycles after_one = kernel.tlbMissCycles();
    EXPECT_GT(after_one, 0u);
    tlb.purgeAll();
    kernel.handleTlbMiss(0x10000000, AccessType::Read, 1000);
    EXPECT_GT(kernel.tlbMissCycles(), after_one);
}

TEST_F(KernelFixture, HugeRemapRunsOutOfBucketsGracefully)
{
    // Remapping far more than the 16 MB bucket supply (Figure 2)
    // must warn and leave the tail base-paged, not crash. 40 MB of
    // data needs 2.5 of the 16 x 16 MB buckets — fine; but after
    // draining all buckets of every size the allocator must give up
    // cleanly. Use a small dedicated region to keep the test fast:
    // drain class-1 buckets by remapping 1024 separate 16 KB pieces,
    // then one more.
    kernel.addressSpace().addRegion("big", 0x30000000, 48 * MB, {});
    for (unsigned i = 0; i < 1025; ++i) {
        const Addr base = 0x30000000 + Addr{i} * 32 * 1024;
        kernel.remap(base, 16 * 1024, i);
    }
    // 1024 succeeded, the 1025th fell back to a larger bucket (64 KB
    // region for a 16 KB superpage is not possible — fallback goes
    // *down* in size, so it simply fails and stays base-paged).
    EXPECT_EQ(kernel.addressSpace().superpages().size(), 1024u);
}

namespace
{

/** Records every KernelObserver event as one line of text. */
struct EventRecorder : KernelObserver
{
    std::vector<std::string> events;

    template <typename... Args>
    static std::string
    line(const char *what, Args... args)
    {
        std::ostringstream os;
        os << what << std::hex;
        ((os << " 0x" << args), ...);
        return os.str();
    }

    void
    onPageMapped(Addr vbase, Addr pfn) override
    {
        events.push_back(line("mapped", vbase, pfn));
    }

    void
    onPageUnmapped(Addr vbase, Addr pfn) override
    {
        events.push_back(line("unmapped", vbase, pfn));
    }

    void
    onSuperpageCreated(Addr vbase, Addr shadow, unsigned cls) override
    {
        events.push_back(line("created", vbase, shadow, cls));
    }

    void
    onSuperpageDemoted(Addr vbase) override
    {
        events.push_back(line("demoted", vbase));
    }

    void
    onShadowFault(Addr vaddr) override
    {
        events.push_back(line("shadow-fault", vaddr));
    }

    void
    onSwapOut(Addr vbase, bool pagewise) override
    {
        events.push_back(line(pagewise ? "swap-out-pagewise"
                                       : "swap-out-whole", vbase));
    }
};

} // namespace

TEST_F(KernelFixture, ObserverSeesEveryMappingEventInOrder)
{
    // One script that reaches every hook, pinned as the exact ordered
    // event stream: the differential fuzzer's oracle is rebuilt from
    // nothing else, so a reordered, missing or extra event is a
    // kernel change even when every count still matches.
    addData();
    EventRecorder rec;
    kernel.setObserver(&rec);
    AddressSpace &space = kernel.addressSpace();
    const Addr va = 0x10000000;
    const Addr page = basePageSize;

    kernel.handleTlbMiss(va + 0x123, AccessType::Read, 0);
    const Addr pfn0 = space.frameOf(va);
    kernel.recolorPage(va, 5, 1000);
    const Addr single = space.findSuperpage(va)->shadowBase;
    kernel.remap(va, 4 * page, 2000);   // demotes, then covers va
    const Addr shadow = space.findSuperpage(va)->shadowBase;
    Addr pfns[4];
    for (unsigned i = 0; i < 4; ++i)
        pfns[i] = space.frameOf(va + i * page);
    kernel.swapOutSuperpagePagewise(va, 10000);
    kernel.handleShadowPageFault(va + 2 * page + 0x10, 20000);
    const Addr reloaded = space.frameOf(va + 2 * page);
    kernel.swapOutSuperpageWhole(va, 30000);
    kernel.setObserver(nullptr);

    EXPECT_EQ(pfns[0], pfn0);
    using R = EventRecorder;
    const std::vector<std::string> expected = {
        R::line("mapped", va, pfn0),
        R::line("created", va, single, 0u),
        R::line("demoted", va),
        R::line("mapped", va + page, pfns[1]),
        R::line("mapped", va + 2 * page, pfns[2]),
        R::line("mapped", va + 3 * page, pfns[3]),
        R::line("created", va, shadow, 1u),
        R::line("swap-out-pagewise", va),
        R::line("unmapped", va, pfns[0]),
        R::line("unmapped", va + page, pfns[1]),
        R::line("unmapped", va + 2 * page, pfns[2]),
        R::line("unmapped", va + 3 * page, pfns[3]),
        R::line("shadow-fault", va + 2 * page + 0x10),
        R::line("mapped", va + 2 * page, reloaded),
        R::line("swap-out-whole", va),
        R::line("unmapped", va + 2 * page, reloaded),
    };
    EXPECT_EQ(rec.events, expected);
}
