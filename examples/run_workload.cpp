/**
 * @file
 * General-purpose simulation driver: any workload, any machine,
 * configured entirely from the command line or a config file.
 *
 * Usage:
 *   run_workload <workload> [scale] [key=value ...] [options]
 *   run_workload --mix <workload,...> [scale] [key=value ...] [options]
 *
 *   <workload>   compress95 | vortex | radix | em3d | cc1 | oltp
 *   [scale]      dataset scale in (0,1], default 1.0
 *
 * Options (later assignments win, so put --config before overrides):
 *   --mix <list>      run the comma-separated workloads as a
 *                     multiprogrammed mix, one process each (repeats
 *                     welcome), time-sliced over the machine's cores;
 *                     cores= and sched.quantum= are ordinary
 *                     assignments. Prints the total cycles.
 *   --config <file>   apply a key=value config file
 *   --dump-stats      print the full statistics tree afterwards
 *   --list-keys       print every accepted config key and exit
 *
 * Any other token containing '=' is a config assignment, e.g.:
 *
 *   run_workload em3d 0.5 tlb.entries=64 mtlb.entries=256 \
 *       mtlb.assoc=4 stream_buffers.enabled=true --dump-stats
 *   run_workload --mix compress95,vortex,em3d,compress95 0.05 \
 *       --config configs/multicore.cfg cores=2
 *
 * Config files live in configs/; configs/paper.cfg is the machine of
 * §3.2/§3.4.
 *
 * Exit status: 0 on success, 1 on a usage error or bad input (an
 * unreadable config file, an unknown key, workload or malformed
 * value), printed as "run_workload: <message>".
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "sim/config_parser.hh"
#include "workloads/experiment.hh"
#include "workloads/multiprog.hh"

using namespace mtlbsim;

namespace
{

void
usage()
{
    std::printf(
        "usage: run_workload <workload> [scale] [key=value ...]\n"
        "       [--config <file>] [--dump-stats] [--list-keys]\n"
        "       run_workload --mix <workload,...> [scale] ...\n"
        "workloads: ");
    for (const auto &name : allWorkloadNames())
        std::printf("%s ", name.c_str());
    std::printf("\n");
}

/** Run the comma-separated workloads of @p list as a mix on a
 *  machine built from @p config. */
int
runMix(const SystemConfig &config, const std::string &list, double scale,
       bool dump_stats)
{
    std::vector<std::string> names;
    for (std::size_t from = 0;;) {
        const std::size_t comma = list.find(',', from);
        names.push_back(list.substr(from, comma - from));
        if (comma == std::string::npos)
            break;
        from = comma + 1;
    }

    System sys(config);
    runMultiprogMix(sys, names, scale, 0);
    // An audited mix ends with one more audit, as a sweep job does.
    if (config.check.enabled)
        sys.audit();

    std::printf("mix:             %s (scale %.2f)\n", list.c_str(), scale);
    std::printf("machine:         %u cores, %u-entry TLBs, %s\n",
                sys.numCores(), sys.config().tlbEntries,
                sys.config().mtlbEnabled ? "MTLB" : "no MTLB");
    std::printf("total cycles:    %llu\n",
                static_cast<unsigned long long>(sys.totalCycles()));
    if (dump_stats) {
        std::printf("\n");
        sys.dumpStats(std::cout);
    }
    return 0;
}

/** The program proper; main() turns its errors into exit status 1. */
int
run(int argc, char **argv)
{
    ConfigParser parser;
    std::vector<std::string> positional;
    std::string mix;
    bool dump_stats = false;

    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (token == "--help" || token == "-h") {
            usage();
            return 0;
        }
        if (token == "--list-keys") {
            for (const auto &key : ConfigParser::knownKeys())
                std::printf("%s\n", key.c_str());
            return 0;
        }
        if (token == "--dump-stats") {
            dump_stats = true;
            continue;
        }
        if (token == "--mix") {
            if (++i >= argc) {
                usage();
                return 1;
            }
            mix = argv[i];
            continue;
        }
        if (token == "--config") {
            if (++i >= argc) {
                usage();
                return 1;
            }
            parser.parseFile(argv[i]);
            continue;
        }
        if (token.find('=') != std::string::npos) {
            const auto eq = token.find('=');
            parser.set(token.substr(0, eq), token.substr(eq + 1));
            continue;
        }
        positional.push_back(token);
    }

    if (!mix.empty()) {
        if (positional.size() > 1) {
            usage();
            return 1;
        }
        const double scale = positional.empty()
                                 ? 1.0
                                 : parseScale("scale", positional[0]);
        return runMix(parser.config(), mix, scale, dump_stats);
    }
    if (positional.empty()) {
        usage();
        return 1;
    }
    const std::string workload_name = positional[0];
    const double scale =
        positional.size() > 1 ? parseScale("scale", positional[1]) : 1.0;

    System sys(parser.config());
    auto workload = makeWorkload(workload_name, scale);

    workload->setup(sys);
    workload->run(sys);

    std::printf("workload:        %s (scale %.2f)\n",
                workload_name.c_str(), scale);
    std::printf("machine:         %u-entry TLB, %s",
                sys.config().tlbEntries,
                sys.config().mtlbEnabled ? "MTLB " : "no MTLB\n");
    if (sys.config().mtlbEnabled) {
        std::printf("%u entries %u-way\n",
                    sys.config().mtlb.numEntries,
                    sys.config().mtlb.associativity);
    }
    std::printf("total cycles:    %llu\n",
                static_cast<unsigned long long>(sys.totalCycles()));
    std::printf("wall time @240MHz: %.1f ms\n",
                static_cast<double>(sys.totalCycles()) / 240e3);
    std::printf("TLB miss time:   %llu cycles (%.2f%%)\n",
                static_cast<unsigned long long>(sys.tlbMissCycles()),
                100.0 * sys.tlbMissFraction());
    std::printf("avg cache fill:  %.2f cycles\n",
                sys.avgFillLatency());
    std::printf("superpages:      %zu\n",
                sys.kernel().addressSpace().superpages().size());
    if (sys.config().mtlbEnabled) {
        std::printf("MTLB hit rate:   %.1f%%\n",
                    100.0 * sys.memsys().mmc().mtlb().hitRate());
    }

    if (dump_stats) {
        std::printf("\n");
        sys.dumpStats(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("run_workload", 1, [&] { return run(argc, argv); });
}
