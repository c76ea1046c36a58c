/**
 * @file
 * TLB-reach sizing study — the paper's §1 motivation as a tool.
 *
 * An architect sizing a processor's TLB wants to know: for a given
 * workload, how much does each TLB size recover, and what does an
 * MTLB in the memory controller buy instead? This example sweeps the
 * CPU TLB from 32 to 256 entries on one workload and prints reach,
 * miss-time fraction, and runtime — with and without the MTLB —
 * reproducing in miniature the paper's observation that a 64-entry
 * TLB plus an MTLB performs like a 128-entry TLB without one.
 *
 * Usage: tlb_reach_study [workload] [scale]
 *   workload: compress95 | vortex | radix | em3d | cc1 (default vortex)
 *   scale:    dataset scale in (0,1] (default 0.25)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads/experiment.hh"

using namespace mtlbsim;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "vortex";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.25;

    std::printf("TLB reach study: %s at scale %.2f\n", name.c_str(),
                scale);
    std::printf("(reach = entries x 4 KB base pages, the paper's §1 "
                "definition)\n\n");
    std::printf("%8s %10s | %14s %9s | %14s %9s | %8s\n", "entries",
                "reach", "cycles (conv)", "miss%", "cycles (MTLB)",
                "miss%", "speedup");

    for (unsigned entries : {32u, 64u, 96u, 128u, 192u, 256u}) {
        const auto base =
            runExperiment(name, scale, paperConfig(entries, false));
        const auto with =
            runExperiment(name, scale, paperConfig(entries, true));
        const Addr reach_kb = Addr{entries} * basePageSize / 1024;
        std::printf("%8u %8lluKB | %14llu %8.1f%% | %14llu %8.1f%% | "
                    "%7.3fx\n",
                    entries,
                    static_cast<unsigned long long>(reach_kb),
                    static_cast<unsigned long long>(base.totalCycles),
                    100.0 * base.tlbMissFraction,
                    static_cast<unsigned long long>(with.totalCycles),
                    100.0 * with.tlbMissFraction,
                    static_cast<double>(base.totalCycles) /
                        static_cast<double>(with.totalCycles));
    }

    std::printf("\nNote how the MTLB column barely changes with TLB "
                "size: shadow superpages have\nalready collapsed the "
                "workload's page working set to a handful of "
                "entries.\n");
    return 0;
}
