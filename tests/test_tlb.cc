/**
 * @file
 * Unit tests for the CPU TLB (superpages, NRU, purge) and the
 * micro-ITLB.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "base/random.hh"
#include "tlb/tlb.hh"

using namespace mtlbsim;

namespace
{
PageProtection rw{true, true};
PageProtection ro{false, true};
PageProtection kernel_only{true, false};
}

TEST(PageSizeClasses, PowersOfFour)
{
    EXPECT_EQ(pageSizeForClass(0), 4u * 1024);
    EXPECT_EQ(pageSizeForClass(1), 16u * 1024);
    EXPECT_EQ(pageSizeForClass(2), 64u * 1024);
    EXPECT_EQ(pageSizeForClass(6), 16u * 1024 * 1024);
    EXPECT_EQ(pageSizeForClass(7), 64u * 1024 * 1024);
}

TEST(PageSizeClasses, SizeClassFor)
{
    EXPECT_EQ(sizeClassFor(1), 0u);
    EXPECT_EQ(sizeClassFor(4096), 0u);
    EXPECT_EQ(sizeClassFor(4097), 1u);
    EXPECT_EQ(sizeClassFor(16 * 1024), 1u);
    EXPECT_EQ(sizeClassFor(64 * 1024 * 1024), 7u);
}

TEST(TlbEntryTest, CoversAndTranslate)
{
    TlbEntry e;
    e.vbase = 0x4000;
    e.pbase = 0x80240000;
    e.sizeClass = 1;    // 16 KB
    e.valid = true;
    EXPECT_TRUE(e.covers(0x4000));
    EXPECT_TRUE(e.covers(0x7fff));
    EXPECT_FALSE(e.covers(0x8000));
    // The paper's Figure 1 example: 0x00004080 -> 0x80240080.
    EXPECT_EQ(e.translate(0x4080), 0x80240080u);
}

struct TlbFixture : ::testing::Test
{
    TlbFixture() : group("t"), tlb(4, "tlb", group) {}
    stats::StatGroup group;
    Tlb tlb;
};

TEST_F(TlbFixture, MissOnEmpty)
{
    const auto r = tlb.lookup(0x1000, AccessType::Read,
                              AccessMode::User);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST_F(TlbFixture, InsertThenHit)
{
    tlb.insert(0x1000, 0x5000, 0, rw);
    const auto r = tlb.lookup(0x1234, AccessType::Read,
                              AccessMode::User);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.paddr, 0x5234u);
}

TEST_F(TlbFixture, SuperpageTranslation)
{
    // 16 KB superpage mapping virtual 0x4000 to shadow 0x80240000,
    // as in Figure 1.
    tlb.insert(0x4000, 0x80240000, 1, rw);
    const auto a = tlb.lookup(0x4080, AccessType::Read,
                              AccessMode::User);
    EXPECT_TRUE(a.hit);
    EXPECT_EQ(a.paddr, 0x80240080u);
    const auto b = tlb.lookup(0x5040, AccessType::Read,
                              AccessMode::User);
    EXPECT_TRUE(b.hit);
    EXPECT_EQ(b.paddr, 0x80241040u);
}

TEST_F(TlbFixture, MixedPageSizesCoexist)
{
    tlb.insert(0x1000, 0x5000, 0, rw);
    tlb.insert(0x1000000, 0x80000000, 4, rw);   // 1 MB superpage
    EXPECT_TRUE(tlb.lookup(0x1fff, AccessType::Read,
                           AccessMode::User).hit);
    EXPECT_TRUE(tlb.lookup(0x10fffff, AccessType::Read,
                           AccessMode::User).hit);
}

TEST_F(TlbFixture, WriteToReadOnlyFaults)
{
    tlb.insert(0x1000, 0x5000, 0, ro);
    const auto r = tlb.lookup(0x1000, AccessType::Write,
                              AccessMode::User);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.protFault);
}

TEST_F(TlbFixture, UserAccessToKernelPageFaults)
{
    tlb.insert(0x1000, 0x5000, 0, kernel_only);
    const auto user = tlb.lookup(0x1000, AccessType::Read,
                                 AccessMode::User);
    EXPECT_TRUE(user.protFault);
    const auto kern = tlb.lookup(0x1000, AccessType::Read,
                                 AccessMode::Kernel);
    EXPECT_FALSE(kern.protFault);
}

TEST_F(TlbFixture, NruEvictsUnreferencedFirst)
{
    tlb.insert(0x1000, 0x1000, 0, rw);
    tlb.insert(0x2000, 0x2000, 0, rw);
    tlb.insert(0x3000, 0x3000, 0, rw);
    tlb.insert(0x4000, 0x4000, 0, rw);
    EXPECT_EQ(tlb.occupancy(), 4u);

    // All four are referenced (inserted referenced). One more insert
    // forces an NRU epoch reset and evicts something; afterwards a
    // freshly-referenced entry should survive the *next* eviction.
    tlb.insert(0x5000, 0x5000, 0, rw);
    EXPECT_EQ(tlb.occupancy(), 4u);

    // Touch 0x5000 so it is referenced.
    tlb.lookup(0x5000, AccessType::Read, AccessMode::User);
    tlb.insert(0x6000, 0x6000, 0, rw);
    EXPECT_TRUE(tlb.lookup(0x5000, AccessType::Read,
                           AccessMode::User).hit);
}

TEST_F(TlbFixture, PinnedEntryNeverEvicted)
{
    tlb.insert(0x1000, 0x1000, 0, rw, true);    // pinned
    for (Addr v = 0x10000; v < 0x20000; v += 0x1000)
        tlb.insert(v, v, 0, rw);
    EXPECT_TRUE(tlb.lookup(0x1000, AccessType::Read,
                           AccessMode::User).hit);
}

TEST_F(TlbFixture, AllPinnedPanicsOnInsert)
{
    stats::StatGroup g("t2");
    Tlb tiny(1, "tiny", g);
    tiny.insert(0x1000, 0x1000, 0, rw, true);
    EXPECT_THROW(tiny.insert(0x2000, 0x2000, 0, rw), PanicError);
}

TEST_F(TlbFixture, InsertReplacesOverlappingMapping)
{
    // §2.3: inserting a superpage discards overlapping base-page
    // entries for the same virtual range.
    tlb.insert(0x4000, 0x9000, 0, rw);
    tlb.insert(0x5000, 0xa000, 0, rw);
    tlb.insert(0x4000, 0x80240000, 1, rw);  // covers both
    EXPECT_EQ(tlb.occupancy(), 1u);
    const auto r = tlb.lookup(0x5000, AccessType::Read,
                              AccessMode::User);
    EXPECT_EQ(r.paddr, 0x80241000u);
}

TEST_F(TlbFixture, InsertUnderLargerMappingReplacesIt)
{
    tlb.insert(0x4000, 0x80240000, 1, rw);
    tlb.insert(0x5000, 0x9000, 0, rw);
    EXPECT_EQ(tlb.occupancy(), 1u);
    EXPECT_FALSE(tlb.lookup(0x4000, AccessType::Read,
                            AccessMode::User).hit);
}

TEST_F(TlbFixture, PurgeRangeDropsExactly)
{
    tlb.insert(0x1000, 0x1000, 0, rw);
    tlb.insert(0x2000, 0x2000, 0, rw);
    tlb.insert(0x3000, 0x3000, 0, rw);
    tlb.purgeRange(0x2000, 0x1000);
    EXPECT_TRUE(tlb.lookup(0x1000, AccessType::Read,
                           AccessMode::User).hit);
    EXPECT_FALSE(tlb.lookup(0x2000, AccessType::Read,
                            AccessMode::User).hit);
    EXPECT_TRUE(tlb.lookup(0x3000, AccessType::Read,
                           AccessMode::User).hit);
}

TEST_F(TlbFixture, PurgeRangeCatchesOverlappingSuperpage)
{
    tlb.insert(0x4000, 0x80240000, 1, rw);
    // Purging any page inside the superpage drops the whole entry.
    tlb.purgeRange(0x6000, 0x1000);
    EXPECT_FALSE(tlb.lookup(0x4000, AccessType::Read,
                            AccessMode::User).hit);
}

TEST_F(TlbFixture, PurgeAllKeepsPinned)
{
    tlb.insert(0x1000, 0x1000, 0, rw, true);
    tlb.insert(0x2000, 0x2000, 0, rw);
    tlb.purgeAll();
    EXPECT_EQ(tlb.occupancy(), 1u);
    EXPECT_TRUE(tlb.lookup(0x1000, AccessType::Read,
                           AccessMode::User).hit);
}

TEST_F(TlbFixture, ProbeDoesNotCountStats)
{
    tlb.insert(0x1000, 0x1000, 0, rw);
    const auto before = tlb.hits();
    EXPECT_TRUE(tlb.probe(0x1000).has_value());
    EXPECT_FALSE(tlb.probe(0x9000).has_value());
    EXPECT_EQ(tlb.hits(), before);
}

TEST_F(TlbFixture, RejectsMisalignedInsert)
{
    EXPECT_THROW(tlb.insert(0x5000, 0x80240000, 1, rw), FatalError);
    EXPECT_THROW(tlb.insert(0x4000, 0x80241000, 1, rw), FatalError);
}

TEST_F(TlbFixture, RejectsIllegalSizeClass)
{
    EXPECT_THROW(tlb.insert(0, 0, numPageSizeClasses, rw), FatalError);
}

TEST(TlbCapacity, OccupancyTracksInsertions)
{
    stats::StatGroup g("t");
    Tlb tlb(96, "tlb", g);
    for (Addr v = 0; v < 10; ++v)
        tlb.insert(v << 12, v << 12, 0, rw);
    EXPECT_EQ(tlb.occupancy(), 10u);
    EXPECT_EQ(tlb.capacity(), 96u);
}

namespace
{

/**
 * The TLB's specification, written the slow and obvious way: the
 * same slot, free-list and NRU discipline as Tlb, but every lookup
 * scans all entries and every insert first purges overlapping entries
 * with a full scan. The differential tests hold Tlb's scan-free
 * base-page insert and flat lookup index to it slot for slot, which
 * also pins the model checker's canonical TLB state.
 */
class NaiveTlb
{
  public:
    explicit NaiveTlb(unsigned n) : entries(n)
    {
        for (unsigned i = 0; i < n; ++i)
            freeList.push_back(n - 1 - i);
    }

    int
    find(Addr vaddr) const
    {
        for (unsigned s = 0; s < entries.size(); ++s) {
            if (entries[s].covers(vaddr))
                return static_cast<int>(s);
        }
        return -1;
    }

    TlbLookupResult
    lookup(Addr vaddr)
    {
        const int s = find(vaddr);
        if (s < 0)
            return {};
        TlbEntry &e = entries[s];
        e.referenced = true;
        return {true, false, e.translate(vaddr), e.prot.writable};
    }

    void
    insert(Addr vbase, Addr pbase, unsigned size_class,
           PageProtection prot)
    {
        purgeRange(vbase, pageSizeForClass(size_class));
        unsigned idx;
        if (!freeList.empty()) {
            idx = freeList.back();
            freeList.pop_back();
        } else {
            idx = pickVictim();
            drop(idx);
            freeList.pop_back();
        }
        entries[idx] = {vbase, pbase, size_class, prot, true, false, true};
    }

    void
    purgeRange(Addr vbase, Addr bytes)
    {
        for (unsigned s = 0; s < entries.size(); ++s) {
            const TlbEntry &e = entries[s];
            if (e.valid && e.vbase < vbase + bytes &&
                vbase < e.vbase + e.size()) {
                drop(s);
            }
        }
    }

    void
    purgeAll()
    {
        for (unsigned s = 0; s < entries.size(); ++s) {
            if (entries[s].valid && !entries[s].pinned)
                drop(s);
        }
    }

    unsigned
    occupancy() const
    {
        return static_cast<unsigned>(entries.size() - freeList.size());
    }

    std::vector<TlbEntry> entries;
    std::vector<unsigned> freeList;
    unsigned clock = 0;

  private:
    void
    drop(unsigned s)
    {
        entries[s].valid = false;
        entries[s].pinned = false;
        freeList.push_back(s);
    }

    unsigned
    pickVictim()
    {
        const auto n = static_cast<unsigned>(entries.size());
        for (int pass = 0; pass < 2; ++pass) {
            for (unsigned i = 0; i < n; ++i) {
                const unsigned s = (clock + i) % n;
                const TlbEntry &e = entries[s];
                if (e.valid && !e.pinned && !e.referenced) {
                    clock = (s + 1) % n;
                    return s;
                }
            }
            for (TlbEntry &e : entries) {
                if (e.valid && !e.pinned)
                    e.referenced = false;
            }
        }
        ADD_FAILURE() << "no NRU victim";
        return 0;
    }
};

/** Tlb and its specification agree on every slot, the NRU clock and
 *  the occupancy, and the index maps exactly the valid entries. */
void
expectSameState(const Tlb &tlb, const NaiveTlb &model, int step)
{
    ASSERT_EQ(tlb.nruClock(), model.clock) << "step " << step;
    ASSERT_EQ(tlb.occupancy(), model.occupancy()) << "step " << step;
    ASSERT_EQ(tlb.indexSize(), model.occupancy()) << "step " << step;
    for (unsigned s = 0; s < tlb.capacity(); ++s) {
        const TlbEntry &got = tlb.entryAt(s);
        const TlbEntry &want = model.entries[s];
        ASSERT_EQ(got.valid, want.valid) << "step " << step << " slot " << s;
        if (!want.valid)
            continue;
        ASSERT_EQ(got.vbase, want.vbase) << "step " << step << " slot " << s;
        ASSERT_EQ(got.pbase, want.pbase) << "step " << step << " slot " << s;
        ASSERT_EQ(got.sizeClass, want.sizeClass)
            << "step " << step << " slot " << s;
        ASSERT_EQ(got.prot, want.prot) << "step " << step << " slot " << s;
        ASSERT_EQ(got.referenced, want.referenced)
            << "step " << step << " slot " << s;
        ASSERT_EQ(tlb.indexedSlot(got.vbase, got.sizeClass),
                  static_cast<int>(s))
            << "step " << step << " slot " << s;
    }
}

/** Look @p vaddr up in both and compare hit, translation and
 *  writability. */
void
expectSameLookup(Tlb &tlb, NaiveTlb &model, Addr vaddr, int step)
{
    const TlbLookupResult got =
        tlb.lookup(vaddr, AccessType::Read, AccessMode::User);
    const TlbLookupResult want = model.lookup(vaddr);
    ASSERT_EQ(got.hit, want.hit) << "step " << step << " va " << vaddr;
    if (!want.hit)
        return;
    ASSERT_EQ(got.paddr, want.paddr) << "step " << step;
    ASSERT_EQ(got.writable, want.writable) << "step " << step;
}

/** Drive a Tlb of @p entries and its specification through one
 *  seeded schedule over a small virtual window, so that base pages
 *  land under live superpages and superpages over live base pages. */
void
runDifferential(unsigned entries, std::uint64_t seed, int steps)
{
    stats::StatGroup g("t");
    Tlb tlb(entries, "tlb", g);
    NaiveTlb model(entries);
    Random rng(seed);
    // 4 MB: 1024 base pages and 16 of the largest (class 3) pages.
    const Addr window = 4 * 1024 * 1024;
    unsigned base_under_super = 0, super_over_base = 0;

    for (int step = 0; step < steps; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 55) {
            // Base page, sometimes right under a live superpage.
            const Addr vbase = rng.below(window) & ~(basePageSize - 1);
            const int owner = model.find(vbase);
            base_under_super +=
                owner >= 0 && model.entries[owner].sizeClass > 0;
            const PageProtection prot{rng.chance(3, 4), true};
            tlb.insert(vbase, 0x40000000 + vbase, 0, prot);
            model.insert(vbase, 0x40000000 + vbase, 0, prot);
        } else if (op < 70) {
            const auto c = static_cast<unsigned>(rng.inRange(1, 3));
            const Addr size = pageSizeForClass(c);
            const Addr vbase = rng.below(window) & ~(size - 1);
            for (const TlbEntry &e : model.entries) {
                super_over_base += e.valid && e.sizeClass == 0 &&
                                   e.vbase >= vbase &&
                                   e.vbase < vbase + size;
            }
            const PageProtection prot{rng.chance(3, 4), true};
            tlb.insert(vbase, 0x80000000 + vbase, c, prot);
            model.insert(vbase, 0x80000000 + vbase, c, prot);
        } else if (op < 95) {
            expectSameLookup(tlb, model, rng.below(window), step);
        } else if (op < 99) {
            const Addr vbase = rng.below(window) & ~(basePageSize - 1);
            const Addr bytes = basePageSize * rng.inRange(1, 64);
            tlb.purgeRange(vbase, bytes);
            model.purgeRange(vbase, bytes);
        } else {
            tlb.purgeAll();
            model.purgeAll();
        }
        expectSameState(tlb, model, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(base_under_super, 0u);
    EXPECT_GT(super_over_base, 0u);
}

} // namespace

TEST(TlbDifferential, EightEntriesMatchTheFullScanModel)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDifferential(8, seed, 20000);
}

TEST(TlbDifferential, SixtyFourEntriesMatchTheFullScanModel)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDifferential(64, seed, 20000);
}

TEST(TlbDifferential, ChurnInsideOneWrappingProbeCluster)
{
    // Base pages whose index homes sit at the table's last slots and
    // its first: inserted together they form one probe cluster that
    // wraps around the end, and dropping members from its middle
    // exercises every backward-shift case, wrap included.
    stats::StatGroup g("t");
    Tlb tlb(8, "tlb", g);
    NaiveTlb model(8);
    const unsigned cap = tlb.indexCapacity();
    ASSERT_EQ(cap, 16u);
    auto home = [&tlb](Addr va) { return tlb.indexHomeOf(va, 0); };
    std::vector<Addr> pool;
    for (Addr vpn = 1; pool.size() < 24; ++vpn) {
        const Addr va = vpn << basePageShift;
        if (home(va) >= cap - 2 || home(va) <= 1)
            pool.push_back(va);
    }
    // One cluster from slot cap-2 round to slot 1: two keys share
    // each of the end slot's and slot 0's homes.
    std::vector<Addr> pages;
    for (const unsigned h : {cap - 2, cap - 1, cap - 1, 0u, 0u, 1u}) {
        const auto it =
            std::find_if(pool.begin(), pool.end(), [&](Addr va) {
                return home(va) == h &&
                       std::find(pages.begin(), pages.end(), va) ==
                           pages.end();
            });
        ASSERT_NE(it, pool.end()) << "no spare page homed at " << h;
        pages.push_back(*it);
    }

    int step = 0;
    auto check_all = [&]() {
        expectSameState(tlb, model, step);
        for (const Addr va : pool)
            expectSameLookup(tlb, model, va, step);
        ++step;
    };
    for (const Addr va : pages) {
        tlb.insert(va, va, 0, rw);
        model.insert(va, va, 0, rw);
    }
    check_all();
    // Drop the cluster's members one by one, in the middle first.
    for (const std::size_t i : {2u, 0u, 4u, 1u, 5u, 3u}) {
        tlb.purgeRange(pages[i], basePageSize);
        model.purgeRange(pages[i], basePageSize);
        check_all();
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    // Then churn the pool through the 8-entry TLB: evictions and
    // purges keep deleting from inside the wrapping cluster.
    Random rng(7);
    for (int i = 0; i < 4000; ++i) {
        const Addr va = pool[rng.below(pool.size())];
        if (rng.chance(1, 4)) {
            tlb.purgeRange(va, basePageSize);
            model.purgeRange(va, basePageSize);
        } else {
            tlb.insert(va, va ^ 0x40000000, 0, rw);
            model.insert(va, va ^ 0x40000000, 0, rw);
        }
        check_all();
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
}

TEST(TlbCapacity, AbsurdCapacityIsFatal)
{
    stats::StatGroup g("t");
    EXPECT_THROW(Tlb(0, "tlb", g), FatalError);
    EXPECT_THROW(Tlb(Tlb::maxEntries + 1, "tlb", g), FatalError);
    EXPECT_THROW(Tlb(4294967295u, "tlb", g), FatalError);
}

TEST(MicroItlbTest, HitsAfterFill)
{
    stats::StatGroup g("t");
    MicroItlb uitlb(g);
    EXPECT_FALSE(uitlb.hit(0x1000));

    TlbEntry e;
    e.vbase = 0x1000;
    e.pbase = 0x5000;
    e.sizeClass = 0;
    e.valid = true;
    uitlb.fill(e);
    EXPECT_TRUE(uitlb.hit(0x1000));
    EXPECT_TRUE(uitlb.hit(0x1ffc));
    EXPECT_FALSE(uitlb.hit(0x2000));
}

TEST(MicroItlbTest, InvalidateForgets)
{
    stats::StatGroup g("t");
    MicroItlb uitlb(g);
    TlbEntry e;
    e.vbase = 0x1000;
    e.pbase = 0x5000;
    e.valid = true;
    uitlb.fill(e);
    uitlb.invalidate();
    EXPECT_FALSE(uitlb.hit(0x1000));
}
