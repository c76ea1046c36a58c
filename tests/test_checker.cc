/**
 * @file
 * Tests for the translation-invariant auditor (src/check).
 *
 * Strategy: build a real machine, put it into a known-good state,
 * verify the auditor reports it clean — then use the FaultInjector to
 * plant one corruption of each class and assert the auditor pins it
 * to the right invariant. Built with MTLBSIM_CHECK_TESTING, without
 * which the injector's header does not compile.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/fault_injector.hh"
#include "check/translation_auditor.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;
constexpr Addr dataBase = 0x10000000;

SystemConfig
machine(bool mtlb = true)
{
    SystemConfig c;
    c.installedBytes = 64 * MB;
    c.mtlbEnabled = mtlb;
    return c;
}

/** Declare a data region, materialise a superpage plus some loose
 *  base pages, and stir the TLB a little. */
void
warmUp(System &sys)
{
    sys.kernel().addressSpace().addRegion("data", dataBase, 8 * MB, {});
    if (sys.config().mtlbEnabled)
        sys.cpu().remap(dataBase, MB);
    for (Addr off = 0; off < 2 * MB; off += basePageSize)
        sys.cpu().load(dataBase + off);
    // Keep the superpage (the first MB) load-only so its R/D state
    // stays clean for the desync tests; dirty the second MB.
    for (Addr off = MB; off < 2 * MB; off += basePageSize)
        sys.cpu().store(dataBase + off);
}

/**
 * Shadow-table index of the first superpage's first base page, made
 * resident in the MTLB: the warm-up sweep may have evicted it, so
 * force a fresh MMC access to its line.
 */
Addr
residentSuperpageSpi(System &sys)
{
    const auto &sps = sys.kernel().addressSpace().superpages();
    EXPECT_FALSE(sps.empty());
    const ShadowSuperpage &sp = sps.begin()->second;
    sys.cache().invalidateLine(sp.vbase, sp.shadowBase);
    sys.cpu().load(sp.vbase);
    return sys.physmap().shadowPageIndex(sp.shadowBase);
}

/** @p v in the auditor's "0x..." spelling. */
std::string
hex(Addr v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** Violation @p i of @p report is exactly [@p invariant] @p detail. */
void
expectViolation(const AuditReport &report, std::size_t i,
                const std::string &invariant, const std::string &detail)
{
    ASSERT_LT(i, report.violations.size());
    EXPECT_EQ(report.violations[i].invariant, invariant);
    EXPECT_EQ(report.violations[i].detail, detail);
}

/** The first superpage warmUp() built (the first MB). */
const ShadowSuperpage &
firstSuperpage(System &sys)
{
    return sys.kernel().addressSpace().superpages().begin()->second;
}

} // namespace

TEST(CheckerTest, CleanSystemPasses)
{
    System sys(machine());
    warmUp(sys);
    AuditReport report = sys.auditor().collect();
    for (const auto &v : report.violations)
        ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.checksRun, 8u);
}

TEST(CheckerTest, CleanNoMtlbSystemPasses)
{
    System sys(machine(false));
    warmUp(sys);
    AuditReport report = sys.auditor().collect();
    for (const auto &v : report.violations)
        ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
    EXPECT_TRUE(report.clean());
}

TEST(CheckerTest, DetectsDoubleMappedFrame)
{
    System sys(machine());
    warmUp(sys);
    // Back an untouched page with a frame that already backs another.
    FaultInjector::doubleMapFrame(sys, dataBase + MB + basePageSize,
                                  dataBase + 7 * MB);
    AuditReport report = sys.auditor().collect();
    EXPECT_TRUE(report.has("frame-accounting"));
}

TEST(CheckerTest, ReportsPagesInAddressOrder)
{
    System sys(machine());
    warmUp(sys);
    // Double-map three frames, installing the pages out of address
    // order (neither first-in nor last-in comes first): the report
    // follows page order, not installation or hash order.
    const Addr pages[] = {dataBase + 6 * MB, dataBase + 7 * MB,
                          dataBase + 5 * MB};
    for (unsigned i = 0; i < 3; ++i) {
        FaultInjector::doubleMapFrame(
            sys, dataBase + MB + i * basePageSize, pages[i]);
    }
    const AddressSpace &space = sys.kernel().addressSpace();
    AuditReport accounting;
    for (const auto &v : sys.auditor().collect().violations) {
        if (v.invariant == "frame-accounting")
            accounting.violations.push_back(v);
    }
    ASSERT_EQ(accounting.violations.size(), 3u);
    const Addr ascending[] = {pages[2], pages[0], pages[1]};
    for (unsigned i = 0; i < 3; ++i) {
        expectViolation(accounting, i, "frame-accounting",
                        "frame " + hex(space.frameOf(ascending[i])) +
                            " backs two pages (double-mapped frame)");
    }
}

TEST(CheckerTest, DetectsLeakedFrame)
{
    System sys(machine());
    warmUp(sys);
    FaultInjector::leakFrame(sys);
    AuditReport report = sys.auditor().collect();
    EXPECT_TRUE(report.has("frame-accounting"));
}

TEST(CheckerTest, DetectsStaleMtlbEntry)
{
    System sys(machine());
    warmUp(sys);
    // Redirect the superpage's first PTE under the MTLB's cached
    // copy: the retranslation the hardware holds is now stale.
    FaultInjector::staleMtlbEntry(sys, residentSuperpageSpi(sys), 3000);
    AuditReport report = sys.auditor().collect();
    EXPECT_TRUE(report.has("mtlb-coherence"));
}

TEST(CheckerTest, DetectsRdBitDesync)
{
    System sys(machine());
    warmUp(sys);
    // The table claims a modified bit the MTLB's copy never saw:
    // R/D state may only run ahead in the cache, never in the table.
    FaultInjector::desyncDirtyBit(sys, residentSuperpageSpi(sys));
    AuditReport report = sys.auditor().collect();
    EXPECT_TRUE(report.has("mtlb-coherence"));
}

TEST(CheckerTest, DetectsLeakedShadowMapping)
{
    System sys(machine());
    warmUp(sys);
    // A valid PTE at a shadow index no recorded superpage covers.
    const Addr last_spi =
        sys.physmap().shadowRange().size / basePageSize - 1;
    FaultInjector::leakShadowMapping(sys, last_spi, 3000);
    AuditReport report = sys.auditor().collect();
    EXPECT_TRUE(report.has("shadow-table"));
}

// The four tests below pin the full text and order of what the
// shadow-table and HPT checks report, not just the invariant name.

TEST(CheckerTest, ReportsShadowFrameMappedTwice)
{
    System sys(machine());
    warmUp(sys);
    // A second valid PTE, at a shadow index no superpage covers,
    // naming the frame behind the superpage's first page.
    const ShadowSuperpage &sp = firstSuperpage(sys);
    const Addr spi0 = sys.physmap().shadowPageIndex(sp.shadowBase);
    const Addr pfn = sys.kernel().addressSpace().frameOf(sp.vbase);
    const Addr last_spi =
        sys.physmap().shadowRange().size / basePageSize - 1;
    FaultInjector::leakShadowMapping(sys, last_spi, pfn);

    const AuditReport report = sys.auditor().collect();
    ASSERT_EQ(report.violations.size(), 2u);
    expectViolation(report, 0, "shadow-table",
                    "valid PTE at spi " + hex(last_spi) +
                        " outside every recorded superpage (leaked "
                        "mapping)");
    expectViolation(report, 1, "shadow-table",
                    "frame " + hex(pfn) + " mapped by both spi " +
                        hex(spi0) + " and spi " + hex(last_spi) +
                        " (double-mapped frame)");
}

TEST(CheckerTest, ReportsDuplicatedHptEntry)
{
    System sys(machine());
    warmUp(sys);
    const Addr va = dataBase + MB;     // a loose base page
    FaultInjector::duplicateHptEntry(sys, va);

    const AuditReport report = sys.auditor().collect();
    ASSERT_EQ(report.violations.size(), 1u);
    expectViolation(report, 0, "hpt-coherence",
                    "duplicate entry for v=" + hex(va));
}

TEST(CheckerTest, ReportsSuperpageMissingAnHptReplica)
{
    System sys(machine());
    warmUp(sys);
    // Losing the replica of the superpage's last page also leaves
    // that present page unreachable.
    const ShadowSuperpage &sp = firstSuperpage(sys);
    const Addr last = sp.vbase + sp.size() - basePageSize;
    FaultInjector::dropHptReplica(sys, last);

    const AuditReport report = sys.auditor().collect();
    ASSERT_EQ(report.violations.size(), 2u);
    const Addr n = sp.numBasePages();
    expectViolation(report, 0, "hpt-coherence",
                    "superpage v=" + hex(sp.vbase) + " has " +
                        std::to_string(n - 1) + " of " +
                        std::to_string(n) + " HPT replicas");
    expectViolation(report, 1, "hpt-coherence",
                    "present page v=" + hex(last) +
                        " unreachable through the HPT");
}

TEST(CheckerTest, ReportsPresentPageUnreachableThroughHpt)
{
    System sys(machine());
    warmUp(sys);
    const Addr va = dataBase + MB + 5 * basePageSize;
    FaultInjector::dropHptEntry(sys, va);

    const AuditReport report = sys.auditor().collect();
    ASSERT_EQ(report.violations.size(), 1u);
    expectViolation(report, 0, "hpt-coherence",
                    "present page v=" + hex(va) +
                        " unreachable through the HPT");
}

TEST(CheckerTest, DetectsStaleTlbEntry)
{
    System sys(machine());
    warmUp(sys);
    // A TLB entry for a page the OS never materialised.
    FaultInjector::staleTlbEntry(sys, dataBase + 6 * MB, 0x01000000);
    AuditReport report = sys.auditor().collect();
    EXPECT_TRUE(report.has("tlb-coherence"));
}

TEST(CheckerTest, DetectsStaleMemoEntry)
{
    System sys(machine());
    warmUp(sys);
    // Refresh one memo entry, then corrupt its memoized frame as a
    // missed epoch bump would leave it.
    sys.cpu().load(dataBase);
    FaultInjector::staleMemoEntry(sys, dataBase);
    AuditReport report = sys.auditor().collect();
    EXPECT_TRUE(report.has("memo-coherence"));
}

TEST(CheckerTest, DetectsShadowEscapeToDram)
{
    System sys(machine());
    warmUp(sys);
    FaultInjector::leakShadowAddressToDram(sys);
    AuditReport report = sys.auditor().collect();
    EXPECT_TRUE(report.has("dram-guard"));
}

TEST(CheckerTest, PanicPolicyThrowsOnViolation)
{
    System sys(machine());
    warmUp(sys);
    EXPECT_NO_THROW(sys.audit());
    FaultInjector::leakFrame(sys);
    EXPECT_THROW(sys.audit(), PanicError);
}

TEST(CheckerTest, WarnPolicyCountsViolations)
{
    SystemConfig config = machine();
    config.check.panicOnViolation = false;
    System sys(config);
    warmUp(sys);
    FaultInjector::leakFrame(sys);
    EXPECT_NO_THROW(sys.audit());
    EXPECT_GE(sys.auditor().violationsFound(), 1u);
    EXPECT_EQ(sys.auditor().auditsRun(), 1u);
}

TEST(CheckerTest, EndToEndEm3dAudited)
{
    // Run a small em3d under fine-grained periodic auditing: every
    // 1000 cycles the whole translation state is walked. Any
    // violation panics, so completing the run *is* the assertion.
    // 64 MB installed; the shadow region keeps its default 512 MB
    // (the shadow allocator partitions it per size class and em3d's
    // arrays need the headroom).
    SystemConfig config = machine();
    config.check.enabled = true;
    config.check.interval = 1000;

    System sys(config);
    auto workload = makeWorkload("em3d", 0.02);
    workload->setup(sys);
    ASSERT_NO_THROW(workload->run(sys));
    sys.audit();  // cover the tail interval

    EXPECT_GT(sys.auditor().auditsRun(), 10u);
    EXPECT_EQ(sys.auditor().violationsFound(), 0u);
}

TEST(CheckerTest, AuditWorkFollowsLiveStateNotMachineSize)
{
    // The same audited em3d run on two machines that differ only in
    // installed and shadow memory (4x the frames, 2x the shadow
    // PTEs): the final pass visits exactly as many entries on both,
    // because every walk covers live state (present pages, valid
    // PTEs, busy HPT buckets, mapped frames) and the TLB geometry,
    // never the size of memory.
    const auto final_pass = [](Addr installed_mb, Addr shadow_mb) {
        SystemConfig config;
        config.installedBytes = installed_mb * MB;
        config.shadow.size = shadow_mb * MB;
        config.check.enabled = true;
        config.check.interval = 200000;
        System sys(config);
        auto workload = makeWorkload("em3d", 0.02);
        workload->setup(sys);
        workload->run(sys);
        sys.audit();
        EXPECT_EQ(sys.auditor().violationsFound(), 0u);
        EXPECT_GT(sys.kernel().addressSpace().superpages().size(), 0u);
        return sys.auditor().entriesVisited();
    };
    const std::uint64_t paper_machine = final_pass(256, 512);
    EXPECT_GT(paper_machine, 0u);
    EXPECT_EQ(paper_machine, final_pass(1024, 1024));
}
