/**
 * @file
 * Tests for online superpage promotion (§5, Romer-style competitive
 * policy over cheap shadow-backed promotion).
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "sim/system.hh"
#include "stats/json.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;

SystemConfig
promoConfig(bool promotion, bool honor_explicit = false)
{
    SystemConfig c;
    c.installedBytes = 64 * MB;
    c.kernel.onlinePromotion = promotion;
    c.kernel.honorExplicitRemap = honor_explicit;
    return c;
}

/** Hammer a small set of pages so their chunks accumulate misses. */
void
hammerPages(System &sys, Addr base, unsigned pages, unsigned rounds)
{
    // Touch few lines per page, choosing each page's line offsets so
    // that pages sharing a cache color use disjoint sets: the hot
    // lines all coexist in the 512 KB direct-mapped cache, while the
    // page count cycles far beyond the TLB's reach — the sparse
    // structure superpages are for.
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned p = 0; p < pages; ++p) {
            sys.cpu().execute(2);
            const unsigned offset = ((p >> 7) * 8 + (r % 8)) * 32;
            sys.cpu().load(base + Addr{p} * basePageSize + offset);
        }
    }
}

} // namespace

TEST(Promotion, HotChunkGetsPromoted)
{
    System sys(promoConfig(true));
    sys.kernel().addressSpace().addRegion("data", 0x10000000, 4 * MB,
                                          {});
    // 512 pages cycled against a 96-entry TLB: constant misses.
    hammerPages(sys, 0x10000000, 512, 40);
    EXPECT_GT(sys.kernel().addressSpace().superpages().size(), 0u);
    // Promoted chunks are the configured 64 KB class.
    for (const auto &[vbase, sp] :
         sys.kernel().addressSpace().superpages())
        EXPECT_EQ(sp.sizeClass, 2u);
}

TEST(Promotion, ColdDataStaysBasePaged)
{
    System sys(promoConfig(true));
    sys.kernel().addressSpace().addRegion("data", 0x10000000, 4 * MB,
                                          {});
    // Touch each page a handful of times: few misses per chunk, so
    // no chunk earns its promotion.
    hammerPages(sys, 0x10000000, 64, 1);
    EXPECT_TRUE(sys.kernel().addressSpace().superpages().empty());
}

TEST(Promotion, PromotionReducesSubsequentMissTime)
{
    // Promotion pays for itself only over a long enough run — the
    // competitive policy's premise. 300 rounds give the promoted
    // superpages time to amortise the remap cost.
    System with(promoConfig(true));
    System without(promoConfig(false));
    for (System *sys : {&with, &without}) {
        sys->kernel().addressSpace().addRegion("data", 0x10000000,
                                               4 * MB, {});
        hammerPages(*sys, 0x10000000, 512, 300);
    }
    EXPECT_LT(with.tlbMissCycles(), without.tlbMissCycles());
    EXPECT_LT(with.totalCycles(), without.totalCycles());
}

TEST(Promotion, ExplicitRemapIgnoredWhenDisabled)
{
    System sys(promoConfig(true, false));
    sys.kernel().addressSpace().addRegion("data", 0x10000000, MB, {});
    sys.cpu().remap(0x10000000, MB);    // should be a no-op
    EXPECT_TRUE(sys.kernel().addressSpace().superpages().empty());
}

TEST(Promotion, ExplicitRemapHonoredWhenEnabled)
{
    System sys(promoConfig(true, true));
    sys.kernel().addressSpace().addRegion("data", 0x10000000, MB, {});
    sys.cpu().remap(0x10000000, MB);
    EXPECT_FALSE(sys.kernel().addressSpace().superpages().empty());
}

TEST(Promotion, RespectsRegionBoundaries)
{
    // A chunk straddling the end of a region must never promote.
    System sys(promoConfig(true));
    // 48 KB region: not even one full 64 KB chunk.
    sys.kernel().addressSpace().addRegion("tiny", 0x10000000,
                                          48 * 1024, {});
    hammerPages(sys, 0x10000000, 12, 500);
    EXPECT_TRUE(sys.kernel().addressSpace().superpages().empty());
}

TEST(Promotion, TranslationsCorrectAfterPromotion)
{
    System sys(promoConfig(true));
    auto &as = sys.kernel().addressSpace();
    as.addRegion("data", 0x10000000, 4 * MB, {});

    // Record frames before promotion has had a chance.
    hammerPages(sys, 0x10000000, 64, 1);
    std::vector<Addr> frames;
    for (unsigned p = 0; p < 64; ++p)
        frames.push_back(as.frameOf(0x10000000 + Addr{p} *
                                                     basePageSize));

    // Force promotions.
    hammerPages(sys, 0x10000000, 512, 60);
    ASSERT_FALSE(as.superpages().empty());

    // Every page still resolves to its original frame through
    // TLB -> MTLB.
    for (unsigned p = 0; p < 64; ++p) {
        const Addr va = 0x10000000 + Addr{p} * basePageSize;
        sys.kernel().handleTlbMiss(va, AccessType::Read,
                                   sys.cpu().now());
        const auto tr =
            sys.tlb().lookup(va, AccessType::Read, AccessMode::User);
        ASSERT_TRUE(tr.hit);
        Addr real = tr.paddr;
        if (sys.physmap().classify(tr.paddr) == AddrKind::Shadow) {
            const auto mr = sys.memsys().mmc().service(
                MmcOp::SharedFill, tr.paddr);
            ASSERT_FALSE(mr.fault);
            real = mr.realAddr;
        }
        EXPECT_EQ(real >> basePageShift, frames[p]) << "page " << p;
    }
}

TEST(Promotion, MissFillsMatchTheFullInsertPath)
{
    // Two identical machines take one seeded stream of TLB misses over
    // base pages and shadow superpages (explicit remaps and online
    // promotion). Machine `fast` traps as the CPU does, right after
    // its lookup missed, so a base-page fill skips Tlb::insert's
    // overlap search. Machine `full` forgets the missed page before
    // each trap — it purges a range nothing maps — so every fill takes
    // the full search. Their TLBs must agree slot for slot after every
    // miss, and their statistics at the end.
    System fast(promoConfig(true, true));
    System full(promoConfig(true, true));
    constexpr Addr base = 0x10000000;
    constexpr Addr unmapped = 0x70000000;
    Cycles now = 0;
    for (System *sys : {&fast, &full})
        sys->kernel().addressSpace().addRegion("data", base, 4 * MB, {});

    Random rng(11);
    unsigned base_fills = 0, super_fills = 0;
    for (int step = 0; step < 6000; ++step) {
        if (rng.chance(1, 400)) {
            // An explicit remap of 64 or 256 KB somewhere in the region.
            const Addr bytes = rng.chance(1, 2) ? 64 * 1024 : 256 * 1024;
            const Addr at = base + (rng.below(4 * MB) & ~(bytes - 1));
            for (System *sys : {&fast, &full})
                sys->kernel().remap(at, bytes, now);
        }
        // A hot half megabyte, so the 96-entry TLB keeps missing and
        // chunks earn their promotion.
        const Addr va = base + rng.below(MB / 2) + (step % 4) * MB;
        Cycles cycles[2] = {};
        for (System *sys : {&fast, &full}) {
            Tlb &tlb = sys->tlb();
            if (tlb.lookup(va, AccessType::Read, AccessMode::User).hit)
                continue;
            if (sys == &full)
                tlb.purgeRange(unmapped, basePageSize);
            const TlbMissResult trap =
                sys->kernel().handleTlbMiss(va, AccessType::Read, now);
            ASSERT_TRUE(tlb.lookupSlot(trap.slot, va, AccessType::Read,
                                       AccessMode::User)
                            .hit);
            cycles[sys == &full] = trap.cycles;
            if (sys == &fast) {
                ++(tlb.entryAt(trap.slot).sizeClass == 0 ? base_fills
                                                         : super_fills);
            }
        }
        ASSERT_EQ(cycles[0], cycles[1]) << "step " << step;
        now += cycles[0] + 10;

        const Tlb &a = fast.tlb();
        const Tlb &b = full.tlb();
        ASSERT_EQ(a.nruClock(), b.nruClock()) << "step " << step;
        for (unsigned s = 0; s < a.capacity(); ++s) {
            const TlbEntry &x = a.entryAt(s);
            const TlbEntry &y = b.entryAt(s);
            ASSERT_EQ(x.valid, y.valid) << "step " << step << " slot " << s;
            if (!x.valid)
                continue;
            ASSERT_EQ(x.vbase, y.vbase) << "step " << step << " slot " << s;
            ASSERT_EQ(x.pbase, y.pbase) << "step " << step << " slot " << s;
            ASSERT_EQ(x.sizeClass, y.sizeClass) << "step " << step;
            ASSERT_EQ(x.referenced, y.referenced) << "step " << step;
        }
    }
    EXPECT_GT(base_fills, 1000u);
    EXPECT_GT(super_fills, 20u);
    EXPECT_FALSE(fast.kernel().addressSpace().superpages().empty());
    EXPECT_EQ(fast.rootStats().toJson().dumped(),
              full.rootStats().toJson().dumped());
}

TEST(Promotion, NoPromotionWithoutMtlb)
{
    SystemConfig c = promoConfig(true);
    c.mtlbEnabled = false;
    System sys(c);
    sys.kernel().addressSpace().addRegion("data", 0x10000000, 4 * MB,
                                          {});
    hammerPages(sys, 0x10000000, 512, 60);
    EXPECT_TRUE(sys.kernel().addressSpace().superpages().empty());
}
