/**
 * @file
 * Unit tests for the hashed page table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "base/random.hh"
#include "os/hpt.hh"

using namespace mtlbsim;

namespace
{
VmMapping
basePage(Addr vbase, Addr pbase)
{
    return {vbase, pbase, 0, PageProtection{}};
}

/** One lookup's outcome: the mapping and the probed entry addresses. */
struct Probe
{
    std::optional<VmMapping> mapping;
    std::vector<Addr> probeAddrs;
};

Probe
probe(const Hpt &hpt, Addr vaddr)
{
    Probe p;
    p.mapping = hpt.lookup(vaddr, 0, p.probeAddrs);
    return p;
}

/** @name The entry addresses one call touched, in order */
/** @{ */
std::vector<Addr>
hptInsert(Hpt &hpt, const VmMapping &mapping, unsigned asid = 0)
{
    std::vector<Addr> touched;
    hpt.insert(mapping, asid, touched);
    return touched;
}

std::vector<Addr>
hptRemove(Hpt &hpt, Addr vbase, unsigned size_class, unsigned asid = 0)
{
    std::vector<Addr> touched;
    hpt.remove(vbase, size_class, asid, touched);
    return touched;
}

std::vector<Addr>
hptReplica(Hpt &hpt, const VmMapping &mapping, Addr vaddr)
{
    std::vector<Addr> touched;
    hpt.insertBasePageReplica(mapping, vaddr, 0, touched);
    return touched;
}
/** @} */
}

TEST(HptTest, LookupMissOnEmptyTouchesOneSlot)
{
    Hpt hpt(0x10000, 1024);
    const auto r = probe(hpt, 0x5000);
    EXPECT_FALSE(r.mapping.has_value());
    // The handler reads the (empty) head slot of the hashed bucket.
    EXPECT_EQ(r.probeAddrs.size(), 1u);
}

TEST(HptTest, InsertThenLookup)
{
    Hpt hpt(0x10000, 1024);
    hptInsert(hpt, basePage(0x5000, 0x9000));
    const auto r = probe(hpt, 0x5123);
    ASSERT_TRUE(r.mapping.has_value());
    EXPECT_EQ(r.mapping->pbase, 0x9000u);
    EXPECT_EQ(r.probeAddrs.size(), 1u);
}

TEST(HptTest, ProbeAddressesAreInTable)
{
    Hpt hpt(0x10000, 1024);
    hptInsert(hpt, basePage(0x5000, 0x9000));
    const auto r = probe(hpt, 0x5000);
    ASSERT_EQ(r.probeAddrs.size(), 1u);
    EXPECT_GE(r.probeAddrs[0], hpt.tableBase());
    EXPECT_LT(r.probeAddrs[0], hpt.tableBase() + hpt.tableBytes());
}

TEST(HptTest, MissOnPopulatedTableStillProbes)
{
    Hpt hpt(0x10000, 1024);
    hptInsert(hpt, basePage(0x5000, 0x9000));
    const auto r = probe(hpt, 0x777000);
    EXPECT_FALSE(r.mapping.has_value());
    EXPECT_GE(r.probeAddrs.size(), 1u);
}

TEST(HptTest, SuperpageMappingFound)
{
    Hpt hpt(0x10000, 1024);
    hptInsert(hpt, {0x400000, 0x80000000, 4, PageProtection{}});  // 1 MB
    const auto r = probe(hpt, 0x4abcde);
    ASSERT_TRUE(r.mapping.has_value());
    EXPECT_EQ(r.mapping->sizeClass, 4u);
    EXPECT_EQ(r.mapping->vbase, 0x400000u);
}

TEST(HptTest, SuperpageIsReplicatedPerBasePage)
{
    // PA-RISC base-grain hashing: a 1 MB superpage occupies 256
    // entries, one per base page, each returning the full mapping.
    Hpt hpt(0x10000, 1024);
    hptInsert(hpt, {0x400000, 0x80000000, 4, PageProtection{}});
    EXPECT_EQ(hpt.size(), 256u);
    for (Addr off : {Addr{0}, Addr{0x1000}, Addr{0xff000}}) {
        const auto r = probe(hpt, 0x400000 + off);
        ASSERT_TRUE(r.mapping.has_value()) << off;
        EXPECT_EQ(r.mapping->vbase, 0x400000u);
        EXPECT_EQ(r.mapping->sizeClass, 4u);
    }
}

TEST(HptTest, LookupIsSingleHashRegardlessOfPageSizes)
{
    // The handler's cost does not grow when superpages coexist with
    // base pages: one hash, one (short) chain walk.
    Hpt hpt(0x10000, 1024);
    hptInsert(hpt, basePage(0x5000, 0x9000));
    hptInsert(hpt, {0x400000, 0x80000000, 4, PageProtection{}});
    const auto sp = probe(hpt, 0x400123);
    ASSERT_TRUE(sp.mapping.has_value());
    EXPECT_EQ(sp.probeAddrs.size(), 1u);
    const auto bp = probe(hpt, 0x5000);
    ASSERT_TRUE(bp.mapping.has_value());
    EXPECT_EQ(bp.probeAddrs.size(), 1u);
}

TEST(HptTest, InsertBasePageReplicaAddsOneEntry)
{
    Hpt hpt(0x10000, 1024);
    const VmMapping sp{0x400000, 0x80000000, 1, PageProtection{}};
    hptReplica(hpt, sp, 0x401000);
    EXPECT_EQ(hpt.size(), 1u);
    EXPECT_TRUE(probe(hpt, 0x401000).mapping.has_value());
    EXPECT_FALSE(probe(hpt, 0x400000).mapping.has_value());
    EXPECT_THROW(hptReplica(hpt, sp, 0x404000), FatalError);
}

TEST(HptTest, CollisionChainsProbeInOrder)
{
    // A 1-bucket table forces every entry into one chain.
    Hpt hpt(0x10000, 1);
    hptInsert(hpt, basePage(0x1000, 0x1000));
    hptInsert(hpt, basePage(0x2000, 0x2000));
    hptInsert(hpt, basePage(0x3000, 0x3000));
    const auto r = probe(hpt, 0x3000);
    ASSERT_TRUE(r.mapping.has_value());
    EXPECT_EQ(r.probeAddrs.size(), 3u);
    // Chain entries live at distinct addresses.
    std::set<Addr> unique(r.probeAddrs.begin(), r.probeAddrs.end());
    EXPECT_EQ(unique.size(), 3u);
}

TEST(HptTest, ReusedProbeBufferHoldsOnlyTheLatestProbe)
{
    // The miss handler passes one buffer to every lookup: each call
    // must replace, not extend, what the previous one left there.
    Hpt hpt(0x10000, 1);
    hptInsert(hpt, basePage(0x1000, 0x1000));
    hptInsert(hpt, basePage(0x2000, 0x2000));
    hptInsert(hpt, basePage(0x3000, 0x3000));
    std::vector<Addr> buf;
    ASSERT_TRUE(hpt.lookup(0x3000, 0, buf).has_value());
    ASSERT_EQ(buf.size(), 3u);
    const auto hit = hpt.lookup(0x1000, 0, buf);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->pbase, 0x1000u);
    EXPECT_EQ(buf, probe(hpt, 0x1000).probeAddrs);
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_FALSE(hpt.lookup(0x9000, 0, buf).has_value());
    EXPECT_EQ(buf.size(), 3u);     // a miss walks the whole chain
}

TEST(HptTest, OverflowEntriesLiveBeyondMainTable)
{
    Hpt hpt(0x10000, 1);
    hptInsert(hpt, basePage(0x1000, 0x1000));
    hptInsert(hpt, basePage(0x2000, 0x2000));
    const auto r = probe(hpt, 0x2000);
    ASSERT_EQ(r.probeAddrs.size(), 2u);
    EXPECT_LT(r.probeAddrs[0], hpt.tableBase() + hpt.tableBytes());
    EXPECT_GE(r.probeAddrs[1], hpt.tableBase() + hpt.tableBytes());
}

TEST(HptTest, RemoveDropsMapping)
{
    Hpt hpt(0x10000, 1024);
    hptInsert(hpt, basePage(0x5000, 0x9000));
    hptRemove(hpt, 0x5000, 0);
    EXPECT_FALSE(probe(hpt, 0x5000).mapping.has_value());
}

TEST(HptTest, RemoveFromChainKeepsOthers)
{
    Hpt hpt(0x10000, 1);
    hptInsert(hpt, basePage(0x1000, 0x1000));
    hptInsert(hpt, basePage(0x2000, 0x2000));
    hptInsert(hpt, basePage(0x3000, 0x3000));
    hptRemove(hpt, 0x2000, 0);
    EXPECT_TRUE(probe(hpt, 0x1000).mapping.has_value());
    EXPECT_FALSE(probe(hpt, 0x2000).mapping.has_value());
    EXPECT_TRUE(probe(hpt, 0x3000).mapping.has_value());
}

TEST(HptTest, RemoveHeadPromotesNextIntoFixedSlot)
{
    Hpt hpt(0x10000, 1);
    hptInsert(hpt, basePage(0x1000, 0x1000));
    hptInsert(hpt, basePage(0x2000, 0x2000));
    hptRemove(hpt, 0x1000, 0);
    const auto r = probe(hpt, 0x2000);
    ASSERT_TRUE(r.mapping.has_value());
    // The survivor now occupies the in-table head slot.
    EXPECT_EQ(r.probeAddrs.size(), 1u);
    EXPECT_LT(r.probeAddrs[0], hpt.tableBase() + hpt.tableBytes());
}

TEST(HptTest, ReinsertReplacesInPlace)
{
    Hpt hpt(0x10000, 1024);
    hptInsert(hpt, basePage(0x5000, 0x9000));
    hptInsert(hpt, basePage(0x5000, 0xa000));
    const auto r = probe(hpt, 0x5000);
    ASSERT_TRUE(r.mapping.has_value());
    EXPECT_EQ(r.mapping->pbase, 0xa000u);
    EXPECT_EQ(r.probeAddrs.size(), 1u);     // no chain growth
}

TEST(HptTest, SuperpageRemovalDropsAllReplicas)
{
    Hpt hpt(0x10000, 1024);
    hptInsert(hpt, basePage(0x5000, 0x9000));
    hptInsert(hpt, {0x400000, 0x80000000, 4, PageProtection{}});
    hptRemove(hpt, 0x400000, 4);
    EXPECT_EQ(hpt.size(), 1u);
    EXPECT_FALSE(probe(hpt, 0x400000).mapping.has_value());
    EXPECT_FALSE(probe(hpt, 0x4ff000).mapping.has_value());
    EXPECT_TRUE(probe(hpt, 0x5000).mapping.has_value());
}

TEST(HptTest, InsertRejectsMisalignedSuperpage)
{
    Hpt hpt(0x10000, 1024);
    EXPECT_THROW(hptInsert(hpt, {0x5000, 0x80000000, 1, PageProtection{}}),
                 FatalError);
}

TEST(HptTest, PaperGeometry)
{
    // §3.2: 16 K entries of 16 bytes = 256 KB.
    Hpt hpt(0x00200000, 16384);
    EXPECT_EQ(hpt.tableBytes(), 256u * 1024);
}

TEST(HptTest, RejectsNonPow2Buckets)
{
    EXPECT_THROW(Hpt(0x10000, 1000), FatalError);
}

TEST(HptTest, ForEachEntryFollowsBucketThenChainOrder)
{
    // Seeded differential test: after random inserts (base pages and
    // replicated superpages, two address spaces) and removes, the
    // visitor yields exactly the live entries, in the order a walk of
    // every bucket's chain gives. The walk is rebuilt through lookup():
    // a hit's first probe is its bucket's head slot and its probe
    // count its place in the chain.
    Hpt hpt(0x100000, 256);
    std::map<Addr, VmMapping> live;    // Hpt::keyFor(vpn, asid) -> mapping
    Random rng(5);
    for (int step = 0; step < 3000; ++step) {
        const unsigned asid = static_cast<unsigned>(rng.below(2));
        const unsigned size_class = rng.chance(1, 4) ? 1 : 0;
        const Addr pages = pageSizeForClass(size_class) >> basePageShift;
        const Addr vpn0 = rng.below(512) & ~(pages - 1);
        if (rng.chance(2, 3)) {
            const VmMapping m{vpn0 << basePageShift,
                              rng.below(1u << 20) << basePageShift,
                              size_class, PageProtection{}};
            hptInsert(hpt, m, asid);
            for (Addr i = 0; i < pages; ++i)
                live[Hpt::keyFor(vpn0 + i, asid)] = m;
        } else {
            hptRemove(hpt, vpn0 << basePageShift, size_class, asid);
            for (Addr i = 0; i < pages; ++i) {
                const auto it = live.find(Hpt::keyFor(vpn0 + i, asid));
                if (it != live.end() && it->second.sizeClass == size_class)
                    live.erase(it);
            }
        }
    }
    ASSERT_EQ(hpt.size(), live.size());

    // (bucket, place in chain, key) of every live entry.
    std::vector<std::tuple<Addr, std::size_t, Addr>> chain_walk;
    std::vector<Addr> probes;
    for (const auto &[key, mapping] : live) {
        const Addr vpn = key & ((Addr{1} << Hpt::asidKeyShift) - 1);
        const auto asid = static_cast<unsigned>(key >> Hpt::asidKeyShift);
        ASSERT_TRUE(
            hpt.lookup(vpn << basePageShift, asid, probes).has_value());
        chain_walk.emplace_back(probes.front(), probes.size(), key);
    }
    std::sort(chain_walk.begin(), chain_walk.end());

    std::vector<Hpt::AuditEntry> visited;
    hpt.forEachEntry(
        [&](const Hpt::AuditEntry &e) { visited.push_back(e); });
    ASSERT_EQ(visited.size(), chain_walk.size());
    for (std::size_t i = 0; i < visited.size(); ++i) {
        const Addr key = std::get<2>(chain_walk[i]);
        EXPECT_EQ(Hpt::keyFor(visited[i].vpn, visited[i].asid), key)
            << "entry " << i;
        EXPECT_EQ(visited[i].mapping.vbase, live[key].vbase);
        EXPECT_EQ(visited[i].mapping.pbase, live[key].pbase);
    }
}

TEST(HptTest, FlatLayoutKeepsEntryAddressesAndTouchOrder)
{
    // One bucket, so every entry shares one chain: the head lives in
    // the table slot T, overflow entries at O0, O1, ... after the
    // table. Pins the simulated addresses and the exact order of the
    // addresses each call touches (each becomes a kernel cache
    // access), through appends, in-place replacement, removal from the
    // middle and from the head, and overflow-slot recycling.
    Hpt hpt(0x10000, 1);
    const Addr T = 0x10000;
    auto O = [](Addr k) { return 0x10010 + k * Hpt::entryBytes; };
    using Addrs = std::vector<Addr>;
    auto probes = [&hpt](Addr va) { return probe(hpt, va).probeAddrs; };

    EXPECT_EQ(hptInsert(hpt, basePage(0x1000, 0xa000)), Addrs({T}));
    // Appending rewrites the predecessor's link, then the new entry.
    EXPECT_EQ(hptInsert(hpt, basePage(0x2000, 0xb000)), Addrs({T, O(0)}));
    EXPECT_EQ(hptInsert(hpt, basePage(0x3000, 0xc000)),
              Addrs({O(0), O(1)}));
    EXPECT_EQ(hptInsert(hpt, basePage(0x4000, 0xd000)),
              Addrs({O(1), O(2)}));
    EXPECT_EQ(probes(0x4000), Addrs({T, O(0), O(1), O(2)}));
    // Replacing a mapping rewrites its entry in place.
    EXPECT_EQ(hptInsert(hpt, basePage(0x2000, 0xe000)), Addrs({O(0)}));
    EXPECT_EQ(probe(hpt, 0x2000).mapping->pbase, 0xe000u);

    // Removing from the middle walks to the entry and frees its slot,
    // which the next append reuses.
    EXPECT_EQ(hptRemove(hpt, 0x2000, 0), Addrs({T, O(0)}));
    EXPECT_EQ(probes(0x4000), Addrs({T, O(1), O(2)}));
    EXPECT_EQ(hptInsert(hpt, basePage(0x5000, 0xf000)),
              Addrs({O(2), O(0)}));

    // Removing the head copies the next entry into the table slot and
    // frees the slot that entry occupied.
    EXPECT_EQ(hptRemove(hpt, 0x1000, 0), Addrs({T}));
    EXPECT_EQ(probes(0x3000), Addrs({T}));
    EXPECT_EQ(probe(hpt, 0x3000).mapping->pbase, 0xc000u);
    EXPECT_EQ(probes(0x5000), Addrs({T, O(2), O(0)}));
    EXPECT_EQ(hptInsert(hpt, basePage(0x6000, 0x10000)),
              Addrs({O(0), O(1)}));
    // A miss walks the whole chain.
    EXPECT_EQ(probes(0x9000), Addrs({T, O(2), O(0), O(1)}));
    EXPECT_EQ(hpt.size(), 4u);
}

TEST(HptTest, SuperpageReplicasTouchInOrder)
{
    Hpt hpt(0x10000, 1);
    const Addr T = 0x10000;
    auto O = [](Addr k) { return 0x10010 + k * Hpt::entryBytes; };
    using Addrs = std::vector<Addr>;
    const VmMapping sp{0x400000, 0x80000000, 1, PageProtection{}};

    // Four replicas appended one after another.
    EXPECT_EQ(hptInsert(hpt, sp),
              Addrs({T, T, O(0), O(0), O(1), O(1), O(2)}));
    // A base-page remove of a replica's page matches no entry (the
    // size class differs) and walks the whole chain.
    EXPECT_EQ(hptRemove(hpt, 0x401000, 0), Addrs({T, O(0), O(1), O(2)}));
    EXPECT_EQ(hpt.size(), 4u);
    // Each replica dies at the head; its successor moves into T.
    EXPECT_EQ(hptRemove(hpt, 0x400000, 1), Addrs({T, T, T, T}));
    EXPECT_EQ(hpt.size(), 0u);

    // Freed overflow slots are reused last-freed first.
    EXPECT_EQ(hptReplica(hpt, sp, 0x401000), Addrs({T}));
    EXPECT_EQ(hptReplica(hpt, sp, 0x402000), Addrs({T, O(2)}));
    EXPECT_EQ(hptReplica(hpt, sp, 0x403000), Addrs({O(2), O(1)}));
    // Touches append to the caller's buffer.
    std::vector<Addr> touched{1, 2};
    hpt.insertBasePageReplica(sp, 0x400000, 0, touched);
    EXPECT_EQ(touched, Addrs({1, 2, O(1), O(0)}));
}
