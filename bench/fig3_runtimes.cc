/**
 * @file
 * Figure 3 reproduction: normalized runtimes (and TLB-miss-time
 * fractions) for the five benchmarks, across CPU TLB sizes 64/96/128
 * with and without a 128-entry 2-way MTLB. The base system for
 * normalization is the 96-entry TLB with no MTLB, exactly as in the
 * paper (§3.4).
 *
 * Also evaluates the §3.4 textual claims, including radix at a
 * 256-entry TLB (13.5% miss time in the paper).
 *
 * The design space comes from sweep::fig3Matrix and runs on the
 * parallel SweepRunner; results are identical for any job count.
 *
 * Usage: fig3_runtimes [scale] [jobs]   (default scale 1.0, jobs =
 *                                        hardware concurrency)
 */

#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "sim/config_parser.hh"
#include "sweep/matrix.hh"
#include "workloads/experiment.hh"

using namespace mtlbsim;

namespace
{

struct ConfigPoint
{
    unsigned tlb;
    bool mtlb;
};

const std::vector<ConfigPoint> fig3Points = {
    {64, false}, {96, false}, {128, false},
    {64, true},  {96, true},  {128, true},
};

std::string
pointKey(const ConfigPoint &p)
{
    return std::to_string(p.tlb) + (p.mtlb ? "+M" : "");
}

std::string
jobId(const std::string &workload, unsigned tlb, bool mtlb)
{
    return "fig3/" + workload + "/tlb" + std::to_string(tlb) +
           (mtlb ? "+mtlb" : "");
}

void
printHeader()
{
    std::printf("%-12s", "");
    for (const auto &p : fig3Points) {
        std::printf("  %5u%-6s", p.tlb, p.mtlb ? "+MTLB" : "");
    }
    std::printf("\n");
}

/** The program proper; main() turns its errors into exit status 1. */
int
run(int argc, char **argv)
{
    const double scale = argc > 1 ? parseScale("scale", argv[1]) : 1.0;
    const unsigned jobs =
        argc > 2 ? static_cast<unsigned>(parseCount(
                       "jobs", argv[2], std::numeric_limits<unsigned>::max()))
                 : 0;

    std::printf("=== Figure 3: normalized runtimes, 5 programs x "
                "{64,96,128}-entry TLB x {no MTLB, 128-entry 2-way "
                "MTLB}\n");
    std::printf("=== base system = 96-entry TLB, no MTLB "
                "(scale %.2f)\n\n", scale);

    const auto matrix = sweep::fig3Matrix(scale);
    sweep::SweepOptions options;
    options.jobs = jobs;
    options.captureStats = false;

    const auto results = sweep::SweepRunner(options).run(
        matrix.jobs,
        [](const sweep::SweepResult &r, std::size_t done,
           std::size_t total) {
            std::fprintf(stderr, "  [%zu/%zu] done: %s%s%s\n", done,
                         total, r.id.c_str(),
                         r.ok ? "" : " FAILED: ",
                         r.ok ? "" : r.error.c_str());
        });

    std::map<std::string, ExperimentResult> byId;
    for (const auto &r : results) {
        if (!r.ok) {
            std::fprintf(stderr, "job %s failed: %s\n", r.id.c_str(),
                         r.error.c_str());
            return 1;
        }
        byId[r.id] = r.metrics;
    }
    auto at = [&](const std::string &workload, unsigned tlb,
                  bool mtlb) -> const ExperimentResult & {
        return byId.at(jobId(workload, tlb, mtlb));
    };

    std::printf("--- normalized total runtime (lower is better)\n");
    printHeader();
    for (const auto &name : allWorkloadNames()) {
        const double base =
            static_cast<double>(at(name, 96, false).totalCycles);
        std::printf("%-12s", name.c_str());
        for (const auto &p : fig3Points) {
            std::printf("  %11.3f",
                        static_cast<double>(
                            at(name, p.tlb, p.mtlb).totalCycles) /
                            base);
        }
        std::printf("\n");
    }

    std::printf("\n--- TLB miss handling, %% of total runtime "
                "(Fig 3's shaded fraction)\n");
    printHeader();
    for (const auto &name : allWorkloadNames()) {
        std::printf("%-12s", name.c_str());
        for (const auto &p : fig3Points) {
            std::printf("  %10.1f%%",
                        100.0 *
                            at(name, p.tlb, p.mtlb).tlbMissFraction);
        }
        std::printf("\n");
    }

    // §3.4 textual claims.
    std::printf("\n=== §3.4 claims check\n");

    unsigned over20 = 0;
    for (const auto &name : allWorkloadNames()) {
        if (at(name, 64, false).tlbMissFraction > 0.20)
            ++over20;
    }
    std::printf("programs with >20%% miss time at 64 entries "
                "(paper: 4 of 5): %u of 5\n", over20);

    const auto &radix256 = byId.at("fig3/radix/tlb256");
    std::printf("radix miss time at 256 entries (paper: 13.5%%): "
                "%.1f%%\n", 100.0 * radix256.tlbMissFraction);

    double worst_mtlb = 0;
    std::string worst_name;
    for (const auto &name : allWorkloadNames()) {
        for (const auto &p : fig3Points) {
            if (!p.mtlb)
                continue;
            const double frac = at(name, p.tlb, true).tlbMissFraction;
            if (frac > worst_mtlb) {
                worst_mtlb = frac;
                worst_name = name + " (" + pointKey(p) + ")";
            }
        }
    }
    std::printf("worst MTLB-config miss time (paper: <5%%, em3d "
                "worst): %.1f%% (%s)\n", 100.0 * worst_mtlb,
                worst_name.c_str());

    std::printf("\n--- MTLB speedup at each TLB size "
                "(paper: 5-20%% for miss-heavy programs)\n");
    std::printf("%-12s  %8s  %8s  %8s\n", "", "64", "96", "128");
    for (const auto &name : allWorkloadNames()) {
        std::printf("%-12s", name.c_str());
        for (unsigned tlb : {64u, 96u, 128u}) {
            const double speedup =
                static_cast<double>(at(name, tlb, false).totalCycles) /
                static_cast<double>(at(name, tlb, true).totalCycles);
            std::printf("  %7.3fx", speedup);
        }
        std::printf("\n");
    }

    std::printf("\n--- headline equivalence: 64-entry TLB + MTLB vs "
                "128-entry TLB alone\n");
    for (const auto &name : allWorkloadNames()) {
        const double ratio =
            static_cast<double>(at(name, 64, true).totalCycles) /
            static_cast<double>(at(name, 128, false).totalCycles);
        std::printf("%-12s  %.3f  (%s)\n", name.c_str(), ratio,
                    ratio <= 1.02 ? "64+MTLB wins or ties"
                                  : "128-entry TLB wins");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("fig3_runtimes", 1, [&] { return run(argc, argv); });
}
