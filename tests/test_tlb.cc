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
 * with a full scan. The differential tests hold Tlb's chained lookup
 * index, its probe-free fill after a missed lookup and its bit-scan
 * NRU victim search to it slot for slot, which also pins the model
 * checker's canonical TLB state.
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
    unsigned agings = 0;    ///< NRU aging passes so far

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
            ++agings;
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

/** The shape of one differential schedule. */
struct Schedule
{
    unsigned entries;       ///< TLB capacity
    unsigned maxClass;      ///< largest superpage class inserted (0: none)
    Addr hotBytes;          ///< size of each hot area addresses fall in
    int steps;
    bool purges = true;     ///< whether to purge ranges and everything
};

/** Drive a Tlb and its specification through one seeded schedule.
 *  Addresses fall in four hot areas, one per 64 MB, so base pages
 *  land under live superpages (up to class 7, a whole area) and
 *  superpages over live base pages; half the base-page inserts follow
 *  a lookup of the same page, as the miss handler's fill does.
 *  @return NRU aging passes the schedule made */
unsigned
runDifferential(const Schedule &sched, std::uint64_t seed)
{
    stats::StatGroup g("t");
    Tlb tlb(sched.entries, "tlb", g);
    NaiveTlb model(sched.entries);
    Random rng(seed);
    const Addr area = pageSizeForClass(7);
    auto hot = [&]() {
        return rng.below(4) * area + rng.below(sched.hotBytes);
    };
    unsigned base_under_super = 0, super_over_base = 0, fills = 0;

    for (int step = 0; step < sched.steps; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 55) {
            // Base page, sometimes right under a live superpage.
            const Addr vbase = hot() & ~(basePageSize - 1);
            const int owner = model.find(vbase);
            base_under_super +=
                owner >= 0 && model.entries[owner].sizeClass > 0;
            if (rng.chance(1, 2)) {
                fills += owner < 0;
                expectSameLookup(tlb, model, vbase, step);
            }
            const PageProtection prot{rng.chance(3, 4), true};
            tlb.insert(vbase, 0x40000000 + vbase, 0, prot);
            model.insert(vbase, 0x40000000 + vbase, 0, prot);
        } else if (op < 70 && sched.maxClass > 0) {
            const auto c = static_cast<unsigned>(
                rng.inRange(1, sched.maxClass));
            const Addr size = pageSizeForClass(c);
            const Addr vbase = hot() & ~(size - 1);
            for (const TlbEntry &e : model.entries) {
                super_over_base += e.valid && e.sizeClass == 0 &&
                                   e.vbase >= vbase &&
                                   e.vbase < vbase + size;
            }
            const PageProtection prot{rng.chance(3, 4), true};
            tlb.insert(vbase, 0x80000000 + vbase, c, prot);
            model.insert(vbase, 0x80000000 + vbase, c, prot);
        } else if (op < 95 || !sched.purges) {
            expectSameLookup(tlb, model, hot(), step);
        } else if (op < 99) {
            const Addr vbase = hot() & ~(basePageSize - 1);
            const Addr bytes = basePageSize * rng.inRange(1, 64);
            tlb.purgeRange(vbase, bytes);
            model.purgeRange(vbase, bytes);
        } else {
            tlb.purgeAll();
            model.purgeAll();
        }
        expectSameState(tlb, model, step);
        if (::testing::Test::HasFatalFailure())
            return model.agings;
    }
    if (sched.maxClass > 0) {
        EXPECT_GT(base_under_super, 0u);
        EXPECT_GT(super_over_base, 0u);
    }
    EXPECT_GT(fills, 0u);
    return model.agings;
}

} // namespace

TEST(TlbDifferential, EightEntriesMatchTheFullScanModel)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDifferential({8, 3, 4 * 1024 * 1024, 20000}, seed);
}

TEST(TlbDifferential, SixtyFourEntriesMatchTheFullScanModel)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDifferential({64, 3, 4 * 1024 * 1024, 20000}, seed);
}

TEST(TlbDifferential, EveryCapacityAndSizeClassMatchesTheModel)
{
    // Capacities from a single slot (every insert evicts) to far
    // beyond the paper's, each over all eight size classes and with
    // enough hot pages to keep evicting.
    for (const unsigned entries : {1u, 2u, 96u, 256u, 1000u}) {
        const Addr hot = std::max<Addr>(2 * 1024 * 1024,
                                        Addr{entries} * 4 * basePageSize);
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << entries << " entries, seed " << seed);
            runDifferential({entries, 7, hot, entries > 96 ? 6000 : 12000},
                            seed);
            ASSERT_FALSE(::testing::Test::HasFatalFailure());
        }
    }
}

TEST(TlbDifferential, LongNruAgingRunsMatchTheModel)
{
    // Base pages only, no purges, and twice as many hot pages as
    // entries: every insert of an absent page evicts, and an aging
    // pass follows about every capacity-many evictions.
    for (const unsigned entries : {8u, 64u}) {
        const unsigned agings = runDifferential(
            {entries, 0, Addr{entries} * 2 * basePageSize / 4, 60000,
             false},
            entries);
        EXPECT_GT(agings, 100u) << entries << " entries";
    }
}

TEST(TlbDifferential, CollisionsInOneBucket)
{
    // Keys that share one bucket of the chained index, base pages and
    // a superpage among them: inserts push onto the chain's head, so
    // dropping members in chosen orders erases at the head, in the
    // middle and at the tail, and churn keeps doing so.
    stats::StatGroup g("t");
    Tlb tlb(8, "tlb", g);
    NaiveTlb model(8);
    ASSERT_EQ(tlb.indexBuckets(), 16u);
    const unsigned bucket = tlb.indexBucketOf(0x1000, 0);
    std::vector<Addr> pool;
    for (Addr vpn = 1; pool.size() < 12; ++vpn) {
        if (tlb.indexBucketOf(vpn << basePageShift, 0) == bucket)
            pool.push_back(vpn << basePageShift);
    }
    Addr super = 0;
    for (Addr n = 1; super == 0; ++n) {
        const Addr va = n * pageSizeForClass(2) + 0x10000000;
        if (tlb.indexBucketOf(va, 2) == bucket)
            super = va;
    }

    int step = 0;
    auto check_all = [&]() {
        expectSameState(tlb, model, step);
        for (const Addr va : pool)
            expectSameLookup(tlb, model, va, step);
        expectSameLookup(tlb, model, super + 0x5000, step);
        ++step;
    };
    auto both_insert = [&](Addr va, unsigned c) {
        tlb.insert(va, va ^ 0x40000000, c, rw);
        model.insert(va, va ^ 0x40000000, c, rw);
    };
    auto both_purge = [&](Addr va) {
        tlb.purgeRange(va, basePageSize);
        model.purgeRange(va, basePageSize);
    };

    // Chain, head first: pool[4], super, pool[3], ..., pool[0].
    for (unsigned i = 0; i < 4; ++i)
        both_insert(pool[i], 0);
    both_insert(super, 2);
    both_insert(pool[4], 0);
    check_all();
    for (const Addr va : {pool[2], pool[4], pool[0], super, pool[1],
                          pool[3]}) {  // middle, head, tail, ...
        both_purge(va);
        check_all();
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    EXPECT_EQ(tlb.indexSize(), 0u);

    // Churn the bucket through the 8-entry TLB: evictions, purges and
    // missed-lookup fills keep relinking the one chain.
    Random rng(7);
    for (int i = 0; i < 4000; ++i) {
        const Addr va = pool[rng.below(pool.size())];
        if (rng.chance(1, 4)) {
            both_purge(va);
        } else if (rng.chance(1, 8)) {
            both_insert(super, 2);
        } else {
            expectSameLookup(tlb, model, va, step);
            both_insert(va, 0);
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
