/**
 * @file
 * §4 ablation: all-shadow operation.
 *
 * On machines whose entire physical address range is populated with
 * DRAM there are no free addresses for shadow regions. The paper's
 * proposed escape: route *all* virtual accesses through shadow
 * memory and let the kernel use real addresses privately. The cost
 * is a heavier MTLB load; §4 predicts that such a configuration
 * "might need to expand its size and/or associativity" to keep
 * programs that do not use superpages fast.
 *
 * This harness runs a TLB-friendly workload (which gains nothing
 * from superpages) in mixed mode and in all-shadow mode across MTLB
 * sizes, showing the §4 overhead and how a bigger MTLB recovers it.
 *
 * Usage: allshadow_ablation
 */

#include <cstdio>

#include "base/random.hh"
#include "sim/system.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;

Cycles
run(bool all_shadow, unsigned mtlb_entries)
{
    SystemConfig config;
    config.installedBytes = 64 * MB;
    config.kernel.allShadowMode = all_shadow;
    config.mtlb.numEntries = mtlb_entries;
    config.mtlb.associativity = 2;
    // Coarse-grained invariant auditing: cheap insurance that the
    // ablation exercises only consistent translation state.
    config.check.enabled = true;
    config.check.interval = 5'000'000;
    System sys(config);

    // A program that gains nothing from superpages (its TLB
    // behaviour is identical either way): sequential sweeps over
    // 2 MB, plus pointer-chasing sprinkles across 8 MB that exercise
    // the MTLB's capacity in all-shadow mode.
    const Addr base = 0x10000000;
    const Addr span = 2 * MB;
    const Addr far_span = 8 * MB;
    sys.kernel().addressSpace().addRegion("data", base, far_span, {});

    Random rng(9);
    for (unsigned sweep = 0; sweep < 8; ++sweep) {
        for (Addr off = 0; off < span; off += 32) {
            sys.cpu().execute(3);
            if (rng.chance(1, 16))
                sys.cpu().store(base + off);
            else
                sys.cpu().load(base + off);
            if (rng.chance(1, 8)) {
                sys.cpu().execute(2);
                sys.cpu().load(base +
                               (rng.below(far_span) & ~Addr{7}));
            }
        }
    }
    return sys.totalCycles();
}

} // namespace

int
main()
{
    std::printf("=== §4 ablation: all-shadow operation vs mixed "
                "mode, across MTLB sizes\n    (TLB-friendly 2 MB "
                "sequential workload; 2-way MTLB)\n\n");
    std::printf("%-10s %16s %16s %12s\n", "MTLB", "mixed (cyc)",
                "all-shadow (cyc)", "overhead");

    for (unsigned entries : {64u, 128u, 256u, 512u, 1024u}) {
        const Cycles mixed = run(false, entries);
        const Cycles shadow = run(true, entries);
        std::printf("%-10u %16llu %16llu %+11.1f%%\n", entries,
                    static_cast<unsigned long long>(mixed),
                    static_cast<unsigned long long>(shadow),
                    100.0 * (static_cast<double>(shadow) /
                                 static_cast<double>(mixed) -
                             1.0));
    }

    std::printf("\nAll-shadow mode pays the MTLB's per-operation "
                "check and fill costs on every\naccess; growing the "
                "MTLB recovers the difference, exactly as §4 "
                "anticipates.\n");
    return 0;
}
