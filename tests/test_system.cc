/**
 * @file
 * Integration tests: whole-System behaviour and the paper's
 * qualitative claims at small scale.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/system.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;

SystemConfig
config(bool mtlb, unsigned tlb_entries = 96)
{
    SystemConfig c;
    c.installedBytes = 64 * MB;
    c.mtlbEnabled = mtlb;
    c.tlbEntries = tlb_entries;
    return c;
}

/**
 * A tiny TLB-hostile kernel: random accesses over many pages.
 * Returns total cycles.
 */
Cycles
runRandomWalk(System &sys, Addr pages, unsigned accesses,
              bool do_remap)
{
    const Addr base = 0x10000000;
    sys.kernel().addressSpace().addRegion(
        "data", base, pages * basePageSize, {});
    if (do_remap)
        sys.cpu().remap(base, pages * basePageSize);

    Random rng(42);
    for (unsigned i = 0; i < accesses; ++i) {
        const Addr a = base + rng.below(pages * basePageSize);
        sys.cpu().execute(4);
        if (rng.chance(1, 4))
            sys.cpu().store(a & ~Addr{7});
        else
            sys.cpu().load(a & ~Addr{7});
    }
    return sys.totalCycles();
}

} // namespace

TEST(SystemTest, ConstructsWithAndWithoutMtlb)
{
    EXPECT_NO_THROW(System{config(true)});
    EXPECT_NO_THROW(System{config(false)});
}

TEST(SystemTest, OneCoreMoreThanTheBoundIsFatal)
{
    // Checked before any per-core TLB, page memo or CPU is built.
    SystemConfig c = config(true);
    c.cores = System::maxCores + 1;
    try {
        System sys(c);
        FAIL() << "a " << c.cores << "-core machine was built";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("1 to 64 cores, not 65"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SystemTest, StatsDumpContainsAllGroups)
{
    System sys(config(true));
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string text = os.str();
    for (const char *group :
         {"system.tlb.", "system.cache.", "system.bus.", "system.mmc.",
          "system.mmc.mtlb.", "system.mmc.dram.", "system.kernel.",
          "system.cpu.", "system.uitlb."}) {
        EXPECT_NE(text.find(group), std::string::npos)
            << "missing stats group " << group;
    }
}

TEST(SystemTest, NoMtlbSystemHasNoMtlbStats)
{
    System sys(config(false));
    std::ostringstream os;
    sys.dumpStats(os);
    EXPECT_EQ(os.str().find("mtlb."), std::string::npos);
}

TEST(SystemTest, MtlbReducesTlbMissTimeOnHostileWorkload)
{
    // The paper's core claim, miniaturised: 256 pages of working set
    // against a 64-entry TLB.
    System base(config(false, 64));
    System with(config(true, 64));
    runRandomWalk(base, 256, 50'000, true);   // remap is a no-op here
    runRandomWalk(with, 256, 50'000, true);

    EXPECT_GT(base.tlbMissFraction(), 0.15);
    EXPECT_LT(with.tlbMissFraction(), 0.05);
    EXPECT_LT(with.totalCycles(), base.totalCycles());
}

TEST(SystemTest, MtlbDoesNotHelpTlbFriendlyWorkload)
{
    // A working set far below TLB reach gains nothing (and must not
    // lose much) from shadow superpages.
    System base(config(false, 96));
    System with(config(true, 96));
    runRandomWalk(base, 8, 50'000, true);
    runRandomWalk(with, 8, 50'000, true);
    const double ratio =
        static_cast<double>(with.totalCycles()) /
        static_cast<double>(base.totalCycles());
    EXPECT_LT(ratio, 1.10);
    EXPECT_GT(ratio, 0.90);
}

TEST(SystemTest, BiggerTlbHelpsWithoutMtlb)
{
    System small(config(false, 64));
    System large(config(false, 256));
    runRandomWalk(small, 200, 50'000, false);
    runRandomWalk(large, 200, 50'000, false);
    EXPECT_LT(large.totalCycles(), small.totalCycles());
}

TEST(SystemTest, MtlbMakesRuntimeInsensitiveToTlbSize)
{
    // §3.4: with the MTLB, results change very little as the CPU TLB
    // grows.
    System t64(config(true, 64));
    System t128(config(true, 128));
    runRandomWalk(t64, 256, 50'000, true);
    runRandomWalk(t128, 256, 50'000, true);
    const double ratio =
        static_cast<double>(t64.totalCycles()) /
        static_cast<double>(t128.totalCycles());
    EXPECT_LT(ratio, 1.05);
    EXPECT_GT(ratio, 0.95);
}

TEST(SystemTest, SmallTlbPlusMtlbMatchesBigTlbAlone)
{
    // The headline equivalence: 64-entry TLB + MTLB ~ 128-entry TLB
    // without one (§1, §6).
    System small_plus(config(true, 64));
    System big_alone(config(false, 128));
    // Enough accesses to amortise the one-time remap cost, which the
    // paper likewise amortises over full benchmark runs (§3.3).
    runRandomWalk(small_plus, 120, 200'000, true);
    runRandomWalk(big_alone, 120, 200'000, true);
    const double ratio =
        static_cast<double>(small_plus.totalCycles()) /
        static_cast<double>(big_alone.totalCycles());
    EXPECT_LT(ratio, 1.10);
}

TEST(SystemTest, ShadowCheckCostsOneMmcCycleOnFills)
{
    // §2.2: with an MTLB, every MMC operation pays one extra MMC
    // cycle — visible as a slightly higher average fill latency for
    // a non-shadow workload.
    System base(config(false, 96));
    System with(config(true, 96));
    runRandomWalk(base, 64, 20'000, false);
    runRandomWalk(with, 64, 20'000, false);     // no remap: all real
    EXPECT_NEAR(with.avgFillLatency(),
                base.avgFillLatency() + cpuCyclesPerMmcCycle, 1.0);
}

TEST(SystemTest, TlbMissFractionConsistency)
{
    System sys(config(false, 64));
    runRandomWalk(sys, 256, 20'000, false);
    EXPECT_GE(sys.tlbMissFraction(), 0.0);
    EXPECT_LE(sys.tlbMissFraction(), 1.0);
    EXPECT_NEAR(sys.tlbMissFraction() *
                    static_cast<double>(sys.totalCycles()),
                static_cast<double>(sys.tlbMissCycles()), 1.0);
}

TEST(SystemTest, PerCoreAccessorsRejectAMissingCore)
{
    System sys(config(true));
    const System &view = sys;
    EXPECT_THROW(sys.cpu(3), PanicError);
    EXPECT_THROW(view.cpu(1), PanicError);
    EXPECT_THROW(sys.tlb(3), PanicError);
    EXPECT_THROW(sys.uitlb(3), PanicError);
}
