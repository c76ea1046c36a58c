/**
 * @file
 * Workload tests: each of the five §3.1 benchmarks runs at small
 * scale on MTLB and non-MTLB machines, with its internal honesty
 * checks (sorted output, round-trip fidelity, finite values) active.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;

SystemConfig
config(bool mtlb, unsigned tlb_entries = 96)
{
    SystemConfig c;
    c.installedBytes = 128 * MB;
    c.mtlbEnabled = mtlb;
    c.tlbEntries = tlb_entries;
    return c;
}

struct RunOutcome
{
    Cycles total;
    Cycles missCycles;
    std::size_t superpages;
};

RunOutcome
runWorkload(const std::string &name, bool mtlb, double scale,
            unsigned tlb_entries = 96)
{
    System sys(config(mtlb, tlb_entries));
    auto w = makeWorkload(name, scale);
    w->setup(sys);
    w->run(sys);
    return {sys.totalCycles(), sys.tlbMissCycles(),
            sys.kernel().addressSpace().superpages().size()};
}

} // namespace

class WorkloadSmoke : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadSmoke, RunsOnMtlbSystem)
{
    const auto r = runWorkload(GetParam(), true, 0.05);
    EXPECT_GT(r.total, 0u);
    EXPECT_GT(r.superpages, 0u);    // superpage creation happened
}

TEST_P(WorkloadSmoke, RunsOnConventionalSystem)
{
    const auto r = runWorkload(GetParam(), false, 0.05);
    EXPECT_GT(r.total, 0u);
    EXPECT_EQ(r.superpages, 0u);    // no shadow support, no superpages
}

TEST_P(WorkloadSmoke, MtlbNeverMuchSlower)
{
    // Scale 0.25 keeps the runs TLB-relevant and amortises the one-
    // time remap cost; §3.4 notes that short runs exaggerate
    // startup/remap costs, hence the loose bound.
    const auto base = runWorkload(GetParam(), false, 0.25);
    const auto with = runWorkload(GetParam(), true, 0.25);
    EXPECT_LT(static_cast<double>(with.total),
              1.08 * static_cast<double>(base.total))
        << GetParam() << " slowed down by the MTLB";
}

TEST_P(WorkloadSmoke, MtlbCutsTlbMissTimeAt64Entries)
{
    const auto base = runWorkload(GetParam(), false, 0.1, 64);
    const auto with = runWorkload(GetParam(), true, 0.1, 64);
    EXPECT_LT(with.missCycles, base.missCycles)
        << GetParam() << " TLB miss time did not improve";
}

TEST_P(WorkloadSmoke, DeterministicAcrossRuns)
{
    const auto a = runWorkload(GetParam(), true, 0.05);
    const auto b = runWorkload(GetParam(), true, 0.05);
    EXPECT_EQ(a.total, b.total) << GetParam() << " not reproducible";
}

INSTANTIATE_TEST_SUITE_P(AllFive, WorkloadSmoke,
                         ::testing::ValuesIn(allWorkloadNames()),
                         [](const auto &info) { return info.param; });

TEST(WorkloadFactory, RejectsUnknownNames)
{
    EXPECT_THROW(makeWorkload("quake", 1.0), FatalError);
}

TEST(WorkloadFactory, RejectsBadScale)
{
    EXPECT_THROW(makeWorkload("radix", 0.0), FatalError);
    EXPECT_THROW(makeWorkload("radix", 1.5), FatalError);
    EXPECT_THROW(makeWorkload("radix", std::nan("")), FatalError);
}

TEST(WorkloadFactory, ListsFiveBenchmarks)
{
    EXPECT_EQ(allWorkloadNames().size(), 5u);
}

TEST(WorkloadDetail, RadixMapsPaperFootprintAtFullConfig)
{
    // Checked without running: construct at scale 1 and inspect the
    // configured footprint (§3.1: 8,437,760 bytes).
    System sys(config(true));
    auto w = makeWorkload("radix", 1.0);
    // setup() would run the full init; instead verify the documented
    // constant is what the full-scale config produces. The cheap way
    // is a tiny run at full key count being too slow for a unit
    // test, so this test only asserts the factory wiring.
    EXPECT_EQ(w->name(), "radix");
}

TEST(WorkloadDetail, Em3dCreatesSuperpagesOnlyAfterInit)
{
    // em3d remaps after initialisation (§3.3): the remap stats must
    // show no zero-fill happening inside remap for em3d.
    System sys(config(true));
    auto w = makeWorkload("em3d", 0.05);
    w->setup(sys);
    // All pages of the remapped region were materialised by the
    // initialisation writes, before remap ran.
    EXPECT_GT(sys.kernel().addressSpace().superpages().size(), 0u);
    const Cycles remap_total = sys.kernel().remapTotalCycles();
    const Cycles remap_flush = sys.kernel().remapFlushCycles();
    // Flush dominates remap cost (§3.3: 1.50 M of 1.66 M cycles).
    EXPECT_GT(remap_flush, remap_total / 2);
}

TEST(WorkloadDetail, VortexAllocatesThroughSbrkOnly)
{
    System sys(config(true));
    auto w = makeWorkload("vortex", 0.02);
    w->setup(sys);
    // Superpages exist and all lie inside the heap region.
    const VmRegion *heap =
        sys.kernel().addressSpace().findRegionByName("heap");
    ASSERT_NE(heap, nullptr);
    for (const auto &[vbase, sp] :
         sys.kernel().addressSpace().superpages()) {
        EXPECT_GE(sp.vbase, heap->base);
        EXPECT_LE(sp.vbase + sp.size(), heap->end());
    }
}

TEST(WorkloadDetail, CompressRemapsFourRegions)
{
    System sys(config(true));
    auto w = makeWorkload("compress95", 0.05);
    w->setup(sys);
    // Tables + 3 buffers were remapped: superpages from 4 distinct
    // regions.
    const auto &sps = sys.kernel().addressSpace().superpages();
    EXPECT_GE(sps.size(), 4u);
}

TEST(WorkloadDetail, Cc1TextStaysBasePaged)
{
    // §3.1: for cc1 all superpage creation is via sbrk(); the text
    // segment is never remapped.
    System sys(config(true));
    auto w = makeWorkload("cc1", 0.05);
    w->setup(sys);
    const VmRegion *text =
        sys.kernel().addressSpace().findRegionByName("text");
    ASSERT_NE(text, nullptr);
    for (const auto &[vbase, sp] :
         sys.kernel().addressSpace().superpages()) {
        EXPECT_FALSE(sp.vbase >= text->base &&
                     sp.vbase < text->end());
    }
}

/* ------------------------------------------------------------------ */
/* Full-configuration footprints (the paper's §3.1 numbers). These    */
/* run setup() at scale 1.0, so they are the slowest unit tests.      */
/* ------------------------------------------------------------------ */

TEST(WorkloadFootprint, RadixMapsThePaperByteCount)
{
    // §3.1: 8,437,760 bytes mapped, 14 superpages for the paper's
    // heap alignment (ours lands within a couple due to the walk's
    // alignment-dependent split).
    System sys(config(true));
    auto w = makeWorkload("radix", 1.0);
    w->setup(sys);
    Addr covered = 0;
    for (const auto &[vbase, sp] :
         sys.kernel().addressSpace().superpages())
        covered += sp.size();
    EXPECT_GE(covered, 8'437'760u - 16 * 1024);
    EXPECT_LE(covered, 8'437'760u + 16 * 1024);
    const auto n = sys.kernel().addressSpace().superpages().size();
    EXPECT_GE(n, 10u);
    EXPECT_LE(n, 18u);
}

TEST(WorkloadFootprint, Em3dMapsThePaperPageCount)
{
    // §3.3: em3d remaps ~1,120 pages of initialised dynamic memory
    // in 16 superpages (ours: 14-16, alignment dependent).
    System sys(config(true));
    auto w = makeWorkload("em3d", 1.0);
    w->setup(sys);
    const auto pages = sys.kernel().remapPages();
    EXPECT_GE(pages, 1'090u);
    EXPECT_LE(pages, 1'180u);
    const auto n = sys.kernel().addressSpace().superpages().size();
    EXPECT_GE(n, 12u);
    EXPECT_LE(n, 18u);
}

TEST(WorkloadFootprint, CompressTableRegionMatchesPaper)
{
    // §3.1: the hash/code-table region is 557,056 bytes; each buffer
    // remap is 999,424 bytes; four regions are remapped in total.
    System sys(config(true));
    auto w = makeWorkload("compress95", 1.0);
    w->setup(sys);
    Addr covered = 0;
    for (const auto &[vbase, sp] :
         sys.kernel().addressSpace().superpages())
        covered += sp.size();
    // 557,056 + 3 x 999,424 = 3,555,328; superpage rounding keeps us
    // within one 16 KB grain per region.
    EXPECT_GE(covered, 3'555'328u - 4 * 16 * 1024);
    EXPECT_LE(covered, 3'555'328u + 4 * 16 * 1024);
}

/* ------------------------------------------------------------------ */
/* oltp: the §1/§6 commercial-projection workload (not one of the     */
/* paper's five, so tested separately).                                */
/* ------------------------------------------------------------------ */

TEST(OltpWorkload, RunsOnBothMachines)
{
    const auto base = runWorkload("oltp", false, 0.02);
    const auto with = runWorkload("oltp", true, 0.02);
    EXPECT_GT(base.total, 0u);
    EXPECT_GT(with.total, 0u);
    EXPECT_GT(with.superpages, 0u);
    EXPECT_LT(with.missCycles, base.missCycles);
}

TEST(OltpWorkload, NotPartOfThePaperFive)
{
    const auto &names = allWorkloadNames();
    EXPECT_EQ(std::find(names.begin(), names.end(), "oltp"),
              names.end());
    EXPECT_NO_THROW(makeWorkload("oltp", 0.02));
}

TEST(OltpWorkload, Deterministic)
{
    const auto a = runWorkload("oltp", true, 0.02);
    const auto b = runWorkload("oltp", true, 0.02);
    EXPECT_EQ(a.total, b.total);
}
