/**
 * @file
 * §6 ablation: MMC-resident stream buffers.
 *
 * The paper's future-work list proposes hosting Jouppi-style stream
 * buffers in the Impulse MMC. This harness measures what they buy on
 * the five benchmarks (whose streaming behaviour varies widely) on
 * the standard MTLB machine, sweeping the buffer count.
 *
 * Usage: streambuf_ablation [scale]
 */

#include <cstdio>

#include "base/logging.hh"
#include "sim/config_parser.hh"
#include "workloads/experiment.hh"

using namespace mtlbsim;

namespace
{

ExperimentResult
runWith(const std::string &name, double scale, unsigned buffers)
{
    SystemConfig config = paperConfig(96, true);
    // Coarse-grained invariant auditing: cheap insurance that the
    // ablation exercises only consistent translation state.
    config.check.enabled = true;
    config.check.interval = 5'000'000;
    if (buffers > 0) {
        config.streamBuffers.enabled = true;
        config.streamBuffers.numBuffers = buffers;
        config.streamBuffers.depth = 4;
    }
    return runExperiment(name, scale, config);
}

/** The program proper; main() turns its errors into exit status 1. */
int
run(int argc, char **argv)
{
    const double scale = argc > 1 ? parseScale("scale", argv[1]) : 0.5;

    std::printf("=== §6 ablation: MMC stream buffers on the MTLB "
                "machine (96-entry TLB, scale %.2f)\n\n", scale);
    std::printf("%-12s %12s %12s %12s %12s\n", "workload", "none",
                "2 buffers", "4 buffers", "8 buffers");

    for (const auto &name : allWorkloadNames()) {
        const auto none = runWith(name, scale, 0);
        const double base = static_cast<double>(none.totalCycles);
        std::printf("%-12s %12.3f", name.c_str(), 1.0);
        for (unsigned buffers : {2u, 4u, 8u}) {
            const auto r = runWith(name, scale, buffers);
            std::printf(" %12.3f",
                        static_cast<double>(r.totalCycles) / base);
        }
        std::printf("\n");
        std::fprintf(stderr, "  done: %s\n", name.c_str());
    }

    std::printf("\n(normalized runtime; lower is better. Streaming "
                "workloads — radix's sequential\nphases, compress's "
                "buffers — benefit most; pointer-chasers barely "
                "move.)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("streambuf_ablation", 1, [&] { return run(argc, argv); });
}
