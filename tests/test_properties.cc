/**
 * @file
 * Property-based and parameterized sweep tests on system invariants.
 *
 * These exercise the translation machinery under randomised
 * operation sequences and sweep the configuration axes the paper
 * varies (TLB size, MTLB size/associativity), asserting invariants
 * rather than exact numbers.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "base/random.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/schedule.hh"
#include "mmc/memsys.hh"
#include "sim/system.hh"
#include "tlb/tlb.hh"

using namespace mtlbsim;

namespace
{
constexpr Addr MB = 1024 * 1024;
}

/* ------------------------------------------------------------------ */
/* TLB translation correctness under random insert/purge/lookup.      */
/* ------------------------------------------------------------------ */

class TlbProperty : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TlbProperty, AgreesWithReferenceModelUnderRandomOps)
{
    stats::StatGroup g("t");
    Tlb tlb(GetParam(), "tlb", g);
    Random rng(GetParam() * 7919 + 3);

    // Reference model: list of live mappings (vbase, class, pbase).
    struct Ref
    {
        Addr vbase;
        Addr pbase;
        unsigned cls;
    };
    std::map<Addr, Ref> live;   // keyed by vbase

    auto ref_translate = [&](Addr vaddr) -> std::optional<Addr> {
        for (const auto &[vb, m] : live) {
            const Addr size = pageSizeForClass(m.cls);
            if (vaddr >= m.vbase && vaddr - m.vbase < size)
                return m.pbase | (vaddr & (size - 1));
        }
        return std::nullopt;
    };

    for (int step = 0; step < 3000; ++step) {
        const auto op = rng.below(10);
        if (op < 4) {
            // Insert a random mapping.
            const unsigned cls = static_cast<unsigned>(rng.below(4));
            const Addr size = pageSizeForClass(cls);
            const Addr vbase = (rng.below(64) * size) & ~(size - 1);
            const Addr pbase = (rng.below(1024) * size) & ~(size - 1);
            tlb.insert(vbase, pbase, cls, PageProtection{});
            // Mirror: drop overlapped entries, then add.
            for (auto it = live.begin(); it != live.end();) {
                const Addr esz = pageSizeForClass(it->second.cls);
                if (it->first < vbase + size &&
                    vbase < it->first + esz)
                    it = live.erase(it);
                else
                    ++it;
            }
            live[vbase] = {vbase, pbase, cls};
        } else if (op < 5 && !live.empty()) {
            // Purge a random live range.
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            tlb.purgeRange(it->first, pageSizeForClass(it->second.cls));
            live.erase(it);
        } else {
            // Lookup a random address; on a TLB hit the translation
            // must match the reference model exactly. (The TLB may
            // miss entries the model holds — NRU evicts — but must
            // never return a *wrong* translation.)
            const Addr vaddr = rng.below(64 * pageSizeForClass(3));
            const auto r = tlb.lookup(vaddr, AccessType::Read,
                                      AccessMode::User);
            if (r.hit) {
                const auto expect = ref_translate(vaddr);
                ASSERT_TRUE(expect.has_value())
                    << "TLB hit on an address the model never mapped";
                EXPECT_EQ(r.paddr, *expect);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbProperty,
                         ::testing::Values(4u, 16u, 64u, 96u, 128u));

/* ------------------------------------------------------------------ */
/* MTLB + shadow table: translations always match the table.          */
/* ------------------------------------------------------------------ */

struct MtlbGeometry
{
    unsigned entries;
    unsigned assoc;
};

class MtlbProperty : public ::testing::TestWithParam<MtlbGeometry>
{};

TEST_P(MtlbProperty, NeverReturnsStaleTranslations)
{
    stats::StatGroup g("t");
    ShadowTable table(4096, 0x100000);
    MtlbConfig c;
    c.numEntries = GetParam().entries;
    c.associativity = GetParam().assoc;
    Mtlb mtlb(c, table, g);
    Random rng(GetParam().entries * 31 + GetParam().assoc);

    std::map<Addr, Addr> model;     // spi -> pfn

    for (int step = 0; step < 5000; ++step) {
        const Addr spi = rng.below(512);
        const auto op = rng.below(10);
        if (op < 2) {
            const Addr pfn = rng.below(1 << 20);
            table.set(spi, pfn);
            mtlb.purge(spi);    // the OS always purges on remap
            model[spi] = pfn;
        } else if (op < 3) {
            table.invalidate(spi);
            mtlb.purge(spi);
            model.erase(spi);
        } else {
            const auto r = mtlb.translate(
                spi, rng.chance(1, 3) ? MtlbAccess::ExclusiveFill
                                      : MtlbAccess::SharedFill);
            auto it = model.find(spi);
            if (it == model.end()) {
                EXPECT_TRUE(r.fault) << "translated an unmapped page";
            } else {
                ASSERT_FALSE(r.fault);
                EXPECT_EQ(r.realPfn, it->second)
                    << "stale translation for spi " << spi;
            }
        }
    }
}

TEST_P(MtlbProperty, DirtyBitsNeverLost)
{
    stats::StatGroup g("t");
    ShadowTable table(4096, 0x100000);
    MtlbConfig c;
    c.numEntries = GetParam().entries;
    c.associativity = GetParam().assoc;
    Mtlb mtlb(c, table, g);
    Random rng(99 + GetParam().entries);

    std::set<Addr> dirtied;
    for (Addr spi = 0; spi < 1024; ++spi)
        table.set(spi, spi + 1);

    for (int step = 0; step < 5000; ++step) {
        const Addr spi = rng.below(1024);
        if (rng.chance(1, 3)) {
            mtlb.translate(spi, MtlbAccess::ExclusiveFill);
            dirtied.insert(spi);
        } else {
            mtlb.translate(spi, MtlbAccess::SharedFill);
        }
    }
    mtlb.syncAccessBits();

    // §2.5: the MTLB maintains *completely accurate* per-base-page
    // dirty bits: every page we wrote is dirty, none we only read is.
    for (Addr spi = 0; spi < 1024; ++spi) {
        EXPECT_EQ(table.entry(spi).modified == 1,
                  dirtied.count(spi) > 0)
            << "dirty bit wrong for spi " << spi;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MtlbProperty,
    ::testing::Values(MtlbGeometry{16, 1}, MtlbGeometry{64, 2},
                      MtlbGeometry{128, 2}, MtlbGeometry{128, 4},
                      MtlbGeometry{256, 8}, MtlbGeometry{64, 64}));

/* ------------------------------------------------------------------ */
/* End-to-end: remapped and base-paged accesses reach the same frame. */
/* ------------------------------------------------------------------ */

TEST(EndToEndProperty, RemapPreservesTranslationTargets)
{
    SystemConfig config;
    config.installedBytes = 64 * MB;
    System sys(config);
    auto &as = sys.kernel().addressSpace();
    as.addRegion("data", 0x10000000, MB, {});

    // Materialise pages and record their frames.
    std::map<Addr, Addr> frame_of;
    for (Addr off = 0; off < MB; off += basePageSize) {
        sys.kernel().handleTlbMiss(0x10000000 + off, AccessType::Read,
                                   0);
        frame_of[off] = as.frameOf(0x10000000 + off);
    }

    sys.kernel().remap(0x10000000, MB, 1000);

    // Every virtual page must still reach its original frame through
    // TLB (shadow) -> MTLB (real) translation.
    sys.tlb().purgeAll();
    for (Addr off = 0; off < MB; off += basePageSize) {
        const Addr vaddr = 0x10000000 + off;
        sys.kernel().handleTlbMiss(vaddr, AccessType::Read, 2000);
        const auto r = sys.tlb().lookup(vaddr, AccessType::Read,
                                        AccessMode::User);
        ASSERT_TRUE(r.hit);
        const auto mr = sys.memsys().mmc().service(MmcOp::SharedFill,
                                                   r.paddr);
        ASSERT_FALSE(mr.fault);
        EXPECT_EQ(mr.realAddr >> basePageShift, frame_of[off])
            << "wrong frame for offset 0x" << std::hex << off;
    }
}

/* ------------------------------------------------------------------ */
/* Sweep: MTLB miss count decreases with size and associativity.      */
/* ------------------------------------------------------------------ */

TEST(SweepProperty, MtlbMissesMonotonicInSize)
{
    auto misses_for = [](unsigned entries) {
        stats::StatGroup g("t");
        ShadowTable table(4096, 0x100000);
        MtlbConfig c;
        c.numEntries = entries;
        c.associativity = 2;
        Mtlb mtlb(c, table, g);
        for (Addr spi = 0; spi < 1024; ++spi)
            table.set(spi, spi + 1);
        Random rng(4242);
        for (int i = 0; i < 20000; ++i)
            mtlb.translate(rng.below(256), MtlbAccess::SharedFill);
        return mtlb.misses();
    };

    const auto m64 = misses_for(64);
    const auto m128 = misses_for(128);
    const auto m256 = misses_for(256);
    const auto m512 = misses_for(512);
    EXPECT_GT(m64, m128);
    EXPECT_GT(m128, m256);
    // 256 entries hold the whole 256-page working set.
    EXPECT_LE(m512, m256);
}

TEST(SweepProperty, MtlbMissesImproveWithAssociativity)
{
    auto misses_for = [](unsigned assoc) {
        stats::StatGroup g("t");
        ShadowTable table(4096, 0x100000);
        MtlbConfig c;
        c.numEntries = 128;
        c.associativity = assoc;
        Mtlb mtlb(c, table, g);
        for (Addr spi = 0; spi < 2048; ++spi)
            table.set(spi, spi + 1);
        Random rng(777);
        // Strided pattern with conflicts: hits the same sets hard.
        for (int i = 0; i < 30000; ++i) {
            const Addr spi = (rng.below(8)) * 64 + rng.below(4);
            mtlb.translate(spi, MtlbAccess::SharedFill);
        }
        return mtlb.misses();
    };

    EXPECT_GE(misses_for(1), misses_for(2));
    EXPECT_GE(misses_for(2), misses_for(4));
}

/* ------------------------------------------------------------------ */
/* Degenerate machine shapes: every invariant must hold at the        */
/* corners of the config space, not just at the paper's sizes. Each   */
/* shape runs a lockstep differential-fuzz schedule with the full     */
/* auditor after every op; any invariant violation fails the run.     */
/* ------------------------------------------------------------------ */

namespace
{

struct DegenerateShape
{
    const char *name;
    unsigned tlbEntries;
    unsigned mtlbEntries;
    unsigned mtlbAssoc;
    bool batch;             ///< cpu.batch_enable (page memo + replay)
    Addr installedBytes;    ///< 0 = keep the fuzz default (16 MB)
    bool swapPressure;      ///< hand-crafted swap-heavy schedule
};

/** Deterministic swap-heavy op stream for a machine whose frame
 *  pool (installed minus the 8 MB kernel reservation) is smaller
 *  than the data region: progress is only possible because swaps
 *  free frames. */
std::vector<fuzz::FuzzOp> swapPressureOps()
{
    using fuzz::FuzzOp;
    using fuzz::OpKind;
    constexpr Addr quarter = 256 * 1024;    // 64 base pages

    std::vector<FuzzOp> ops;
    ops.push_back({OpKind::Remap, fuzz::fuzzDataBase, quarter});
    for (Addr off = 0; off < quarter; off += basePageSize)
        ops.push_back({OpKind::Store, fuzz::fuzzDataBase + off, 0});
    ops.push_back({OpKind::SwapPagewise, fuzz::fuzzDataBase, 0});

    ops.push_back({OpKind::Remap, fuzz::fuzzDataBase + quarter,
                   quarter});
    for (Addr off = 0; off < quarter; off += basePageSize) {
        ops.push_back({OpKind::Store,
                       fuzz::fuzzDataBase + quarter + off, 0});
    }
    ops.push_back({OpKind::SwapWhole, fuzz::fuzzDataBase + quarter,
                   0});

    // Fault the first region back in (shadow faults + swap-ins),
    // then swap it out again half-dirty.
    for (Addr off = 0; off < quarter; off += basePageSize) {
        const bool dirty = (off >> basePageShift) % 2 == 0;
        ops.push_back({dirty ? OpKind::Store : OpKind::Load,
                       fuzz::fuzzDataBase + off, 0});
    }
    ops.push_back({OpKind::SwapPagewise, fuzz::fuzzDataBase, 0});
    return ops;
}

} // namespace

class DegenerateConfigSweep
    : public ::testing::TestWithParam<DegenerateShape>
{};

TEST_P(DegenerateConfigSweep, AuditorStaysClean)
{
    const DegenerateShape &shape = GetParam();

    fuzz::FuzzParams params;
    params.seed = 13;
    params.auditEvery = 1;
    params.tlbEntries = shape.tlbEntries;
    params.mtlbEntries = shape.mtlbEntries;
    params.mtlbAssoc = shape.mtlbAssoc;
    params.batch = shape.batch;
    if (shape.installedBytes != 0)
        params.installedBytes = shape.installedBytes;

    fuzz::Schedule schedule;
    schedule.params = params;
    if (shape.swapPressure) {
        schedule.ops = swapPressureOps();
        schedule.params.numOps =
            static_cast<unsigned>(schedule.ops.size());
    } else {
        schedule.params.numOps = 400;
        schedule = fuzz::generateSchedule(schedule.params);
    }

    const fuzz::RunResult result = fuzz::runSchedule(schedule);
    EXPECT_FALSE(result.failed)
        << shape.name << ": op " << result.failure.opIndex << " ["
        << result.failure.detector << "] " << result.failure.detail;
    EXPECT_EQ(result.opsExecuted, schedule.ops.size());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DegenerateConfigSweep,
    ::testing::Values(
        DegenerateShape{"one_entry_tlb", 1, 8, 2, false, 0, false},
        DegenerateShape{"one_set_mtlb", 8, 2, 2, false, 0, false},
        DegenerateShape{"tiny_memory_swaps", 8, 8, 2, false, 0x00880000,
                        true},
        // The host fast path at the same corners: a 1-entry TLB
        // retires memo pages constantly, and swap pressure reuses
        // frames behind live superpage entries.
        DegenerateShape{"batch", 8, 8, 2, true, 0, false},
        DegenerateShape{"batch_one_entry_tlb", 1, 8, 2, true, 0, false},
        DegenerateShape{"batch_tiny_memory_swaps", 8, 8, 2, true,
                        0x00880000, true}),
    [](const ::testing::TestParamInfo<DegenerateShape> &info) {
        return info.param.name;
    });
