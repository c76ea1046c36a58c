/**
 * @file
 * Quickstart: build a machine, run one workload, compare with and
 * without the MTLB.
 *
 * This is the paper's headline experiment in miniature (§3.4): the
 * same program on the same machine, once with a conventional memory
 * controller and once with a 128-entry 2-way MTLB backing shadow
 * superpages, showing the runtime and TLB-miss-time difference.
 *
 * Usage: quickstart [workload] [scale]
 *   workload: compress95 | vortex | radix | em3d | cc1 (default em3d)
 *   scale:    dataset scale in (0,1] (default 0.25 for a fast demo)
 */

#include <iomanip>
#include <iostream>
#include <string>

#include "base/logging.hh"
#include "sim/config_parser.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;

namespace
{

struct RunResult
{
    Cycles totalCycles;
    Cycles tlbMissCycles;
    double tlbMissPct;
    double avgFill;
};

RunResult
runOnce(const std::string &workload_name, double scale, bool with_mtlb)
{
    SystemConfig config;
    config.tlbEntries = 96;
    config.mtlbEnabled = with_mtlb;

    System sys(config);
    auto workload = makeWorkload(workload_name, scale);
    workload->setup(sys);
    workload->run(sys);

    return {sys.totalCycles(), sys.tlbMissCycles(),
            100.0 * sys.tlbMissFraction(), sys.avgFillLatency()};
}

/** The program proper; main() turns its errors into exit status 1. */
int
run(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "em3d";
    const double scale = argc > 2 ? parseScale("scale", argv[2]) : 0.25;

    std::cout << "mtlb-sim quickstart: " << name << " at scale "
              << scale << "\n\n";

    std::cout << "running without MTLB (conventional MMC)...\n";
    const RunResult base = runOnce(name, scale, false);
    std::cout << "running with 128-entry 2-way MTLB...\n\n";
    const RunResult mtlb = runOnce(name, scale, true);

    std::cout << std::fixed;
    std::cout << std::setw(28) << "" << std::setw(16) << "no MTLB"
              << std::setw(16) << "MTLB" << '\n';
    std::cout << std::setw(28) << "total cycles"
              << std::setw(16) << base.totalCycles
              << std::setw(16) << mtlb.totalCycles << '\n';
    std::cout << std::setw(28) << "TLB miss cycles"
              << std::setw(16) << base.tlbMissCycles
              << std::setw(16) << mtlb.tlbMissCycles << '\n';
    std::cout << std::setw(28) << "TLB miss % of runtime"
              << std::setw(16) << std::setprecision(2)
              << base.tlbMissPct
              << std::setw(16) << mtlb.tlbMissPct << '\n';
    std::cout << std::setw(28) << "avg cache-fill cycles"
              << std::setw(16) << std::setprecision(2) << base.avgFill
              << std::setw(16) << mtlb.avgFill << '\n';

    const double speedup =
        static_cast<double>(base.totalCycles) /
        static_cast<double>(mtlb.totalCycles);
    std::cout << "\nMTLB speedup: " << std::setprecision(3) << speedup
              << "x\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("quickstart", 1, [&] { return run(argc, argv); });
}
