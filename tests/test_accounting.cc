/**
 * @file
 * Cross-component accounting invariants.
 *
 * After any run, the components' statistics must tell one consistent
 * story: every cache miss became a bus transaction, every bus
 * transaction reached the MMC, every MMC shadow access went through
 * the MTLB, and so on. These tests run assorted machine/workload
 * combinations and check the books. Where a count is a sum of others
 * by construction (a Scalar that includes them, such as
 * mmc.shadow_ops or kernel.tlb_misses), the check tests that wiring.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/random.hh"
#include "mmc/memsys.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;

/** Pull one scalar out of the stats dump by exact name. */
double
statValue(System &sys, const std::string &name)
{
    std::ostringstream os;
    sys.dumpStats(os);
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(name, 0) == 0 &&
            line.size() > name.size() &&
            line[name.size()] == ' ') {
            std::istringstream fields(line.substr(name.size()));
            double value = 0;
            fields >> value;
            return value;
        }
    }
    ADD_FAILURE() << "no stat named " << name;
    return -1;
}

/** Drive a mixed random workload. */
void
drive(System &sys, unsigned accesses, std::uint64_t seed)
{
    sys.kernel().addressSpace().addRegion("data", 0x10000000, 8 * MB,
                                          {});
    sys.cpu().remap(0x10000000, 4 * MB);
    Random rng(seed);
    for (unsigned i = 0; i < accesses; ++i) {
        sys.cpu().execute(3);
        const Addr a = 0x10000000 + (rng.below(8 * MB) & ~Addr{7});
        if (rng.chance(1, 4))
            sys.cpu().store(a);
        else
            sys.cpu().load(a);
    }
}

struct MachineCase
{
    const char *name;
    bool mtlb;
    bool streamBuffers;
    bool allShadow;
    bool promotion;
};

class AccountingMatrix : public ::testing::TestWithParam<MachineCase>
{
  protected:
    System
    makeSystem()
    {
        const auto &p = GetParam();
        SystemConfig config;
        config.installedBytes = 64 * MB;
        config.mtlbEnabled = p.mtlb;
        config.streamBuffers.enabled = p.streamBuffers;
        config.kernel.allShadowMode = p.allShadow;
        config.kernel.onlinePromotion = p.promotion;
        return System(config);
    }
};

} // namespace

TEST_P(AccountingMatrix, CacheTrafficMatchesBusTraffic)
{
    System sys = makeSystem();
    drive(sys, 40'000, 11);

    const double fills = statValue(sys, "system.cache.misses");
    const double wbs = statValue(sys, "system.cache.write_backs");
    const double zeroed =
        statValue(sys, "system.kernel.zero_filled_pages");
    const double controls = statValue(sys, "system.mmc.control_ops");
    const double bus = statValue(sys, "system.bus.transactions");

    // Bus transactions (request phases) = one per fill + one
    // writeback per dirty victim + one uncached op per control write
    // + one block-store writeback per zeroed line (the kernel's
    // non-allocating zero path). Fill data returns occupy the bus
    // but are phases of the same transaction.
    const double zero_lines = zeroed * (basePageSize / cacheLineSize);
    EXPECT_DOUBLE_EQ(bus, fills + wbs + controls + zero_lines);
}

TEST_P(AccountingMatrix, MmcSeesEveryMemoryOperation)
{
    System sys = makeSystem();
    drive(sys, 40'000, 12);

    const double fills = statValue(sys, "system.cache.misses");
    const double wbs = statValue(sys, "system.cache.write_backs");
    const double zeroed =
        statValue(sys, "system.kernel.zero_filled_pages");
    const double ops = statValue(sys, "system.mmc.operations");
    const double zero_lines = zeroed * (basePageSize / cacheLineSize);

    EXPECT_DOUBLE_EQ(ops, fills + wbs + zero_lines);
}

TEST_P(AccountingMatrix, ShadowOpsGoThroughTheMtlb)
{
    System sys = makeSystem();
    drive(sys, 40'000, 13);
    if (!GetParam().mtlb)
        return;

    // mmc.shadow_ops includes the MTLB's hits and misses.
    const double shadow_ops =
        statValue(sys, "system.mmc.shadow_ops");
    const double mtlb_lookups =
        statValue(sys, "system.mmc.mtlb.hits") +
        statValue(sys, "system.mmc.mtlb.misses");
    EXPECT_DOUBLE_EQ(shadow_ops, mtlb_lookups);
}

TEST_P(AccountingMatrix, TlbLookupsMatchCpuActivity)
{
    System sys = makeSystem();
    drive(sys, 40'000, 14);

    // Every data access performs exactly one successful TLB lookup
    // plus one failed lookup per miss trap (the retry after the
    // handler hits). Instruction-side checks add their share via
    // executeAt, which drive() does not use.
    const double loads = statValue(sys, "system.cpu.loads");
    const double stores = statValue(sys, "system.cpu.stores");
    const double hits = statValue(sys, "system.tlb.hits");
    const double misses = statValue(sys, "system.tlb.misses");
    EXPECT_DOUBLE_EQ(hits, loads + stores);
    // The kernel's trap count includes every core's TLB misses.
    EXPECT_DOUBLE_EQ(
        misses, statValue(sys, "system.kernel.tlb_misses"));
}

TEST_P(AccountingMatrix, MissAndFaultCyclesFitInsideTotal)
{
    System sys = makeSystem();
    drive(sys, 40'000, 15);
    const double total = static_cast<double>(sys.totalCycles());
    const double miss =
        statValue(sys, "system.kernel.tlb_miss_cycles");
    const double fault =
        statValue(sys, "system.kernel.vm_fault_cycles");
    const double remap = statValue(sys, "system.kernel.remap_cycles");
    EXPECT_LE(miss + fault + remap, total);
}

TEST_P(AccountingMatrix, InstructionCountMatchesRetirement)
{
    System sys = makeSystem();
    drive(sys, 10'000, 16);
    EXPECT_DOUBLE_EQ(statValue(sys, "system.cpu.instructions"),
                     static_cast<double>(sys.cpu().instructions()));
    // One cycle per instruction minimum: total >= instructions.
    EXPECT_GE(static_cast<double>(sys.totalCycles()),
              statValue(sys, "system.cpu.instructions"));
}

INSTANTIATE_TEST_SUITE_P(
    Machines, AccountingMatrix,
    ::testing::Values(
        MachineCase{"plain", false, false, false, false},
        MachineCase{"mtlb", true, false, false, false},
        MachineCase{"mtlb_sb", true, true, false, false},
        MachineCase{"all_shadow", true, false, true, false},
        MachineCase{"promo", true, false, false, true},
        MachineCase{"everything", true, true, true, true}),
    [](const auto &info) { return info.param.name; });

TEST(AccountingWorkload, RadixBooksBalance)
{
    SystemConfig config;
    config.installedBytes = 128 * MB;
    System sys(config);
    auto w = makeWorkload("radix", 0.05);
    w->setup(sys);
    w->run(sys);

    const double fills = statValue(sys, "system.cache.misses");
    const double wbs = statValue(sys, "system.cache.write_backs");
    const double zeroed =
        statValue(sys, "system.kernel.zero_filled_pages");
    const double controls = statValue(sys, "system.mmc.control_ops");
    const double bus = statValue(sys, "system.bus.transactions");
    const double zero_lines = zeroed * (basePageSize / cacheLineSize);
    EXPECT_DOUBLE_EQ(bus, fills + wbs + controls + zero_lines);
}
