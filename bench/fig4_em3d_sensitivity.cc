/**
 * @file
 * Figure 4 reproduction: em3d sensitivity to MTLB size and
 * associativity.
 *
 * Figure 4(A): total runtime of em3d on a 128-entry CPU TLB without
 * an MTLB vs MTLB configurations sweeping size {64,128,256,512} and
 * associativity {1,2,4,8}. The paper's finding: the no-MTLB system's
 * ~2% advantage over the default 128-entry/2-way MTLB is erased by
 * doubling MTLB size or associativity, with diminishing returns
 * beyond that.
 *
 * Figure 4(B): average time per cache fill for the same
 * configurations. The added delay vs the standard system ranges from
 * ~10 cycles (small, low-associativity MTLBs) down to ~1.5 cycles,
 * with a 1-MMC-cycle floor from the shadow check (§2.2).
 *
 * The design space comes from sweep::fig4Matrix and runs on the
 * parallel SweepRunner; results are identical for any job count.
 *
 * Usage: fig4_em3d_sensitivity [scale] [jobs]
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

/** The program proper; main() turns its errors into exit status 1. */
int
run(int argc, char **argv)
{
    const double scale = argc > 1 ? parseScale("scale", argv[1]) : 1.0;
    const unsigned jobs =
        argc > 2 ? static_cast<unsigned>(parseCount(
                       "jobs", argv[2], std::numeric_limits<unsigned>::max()))
                 : 0;

    const std::vector<unsigned> sizes = {64, 128, 256, 512};
    const std::vector<unsigned> assocs = {1, 2, 4, 8};

    std::printf("=== Figure 4: em3d sensitivity to MTLB size and "
                "associativity (128-entry CPU TLB, scale %.2f)\n\n",
                scale);

    const auto matrix = sweep::fig4Matrix(scale);
    sweep::SweepOptions options;
    options.jobs = jobs;
    options.captureStats = false;

    const auto results = sweep::SweepRunner(options).run(
        matrix.jobs,
        [](const sweep::SweepResult &r, std::size_t done,
           std::size_t total) {
            std::fprintf(stderr, "  [%zu/%zu] done: %s\n", done,
                         total, r.id.c_str());
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

    const auto &base = byId.at("fig4/em3d/no-mtlb");
    auto cell = [&](unsigned entries,
                    unsigned assoc) -> const ExperimentResult & {
        return byId.at("fig4/em3d/m" + std::to_string(entries) + "x" +
                       std::to_string(assoc));
    };

    std::printf("--- (A) total runtime normalized to the no-MTLB "
                "128-entry-TLB system\n");
    std::printf("          no-MTLB baseline: %llu cycles (1.000)\n",
                static_cast<unsigned long long>(base.totalCycles));
    std::printf("%-10s", "entries");
    for (unsigned a : assocs)
        std::printf("  %6u-way", a);
    std::printf("\n");
    for (unsigned s : sizes) {
        std::printf("%-10u", s);
        for (unsigned a : assocs) {
            std::printf("  %10.3f",
                        static_cast<double>(cell(s, a).totalCycles) /
                            static_cast<double>(base.totalCycles));
        }
        std::printf("\n");
    }

    std::printf("\n--- (B) average CPU cycles per cache fill "
                "(no-MTLB baseline: %.2f)\n", base.avgFillCycles);
    std::printf("%-10s", "entries");
    for (unsigned a : assocs)
        std::printf("  %6u-way", a);
    std::printf("\n");
    for (unsigned s : sizes) {
        std::printf("%-10u", s);
        for (unsigned a : assocs)
            std::printf("  %10.2f", cell(s, a).avgFillCycles);
        std::printf("\n");
    }

    std::printf("\n--- (B') added fill delay vs the standard system "
                "(paper: 10 down to 1.5 cycles)\n");
    std::printf("%-10s", "entries");
    for (unsigned a : assocs)
        std::printf("  %6u-way", a);
    std::printf("\n");
    for (unsigned s : sizes) {
        std::printf("%-10u", s);
        for (unsigned a : assocs) {
            std::printf("  %10.2f",
                        cell(s, a).avgFillCycles - base.avgFillCycles);
        }
        std::printf("\n");
    }

    std::printf("\n--- MTLB hit rates (paper: 91%% for the default "
                "128-entry 2-way)\n");
    std::printf("%-10s", "entries");
    for (unsigned a : assocs)
        std::printf("  %6u-way", a);
    std::printf("\n");
    for (unsigned s : sizes) {
        std::printf("%-10u", s);
        for (unsigned a : assocs)
            std::printf("  %9.1f%%", 100.0 * cell(s, a).mtlbHitRate);
        std::printf("\n");
    }

    // §3.5 claims.
    const double default_ratio =
        static_cast<double>(cell(128, 2).totalCycles) /
        static_cast<double>(base.totalCycles);
    const double bigger_ratio =
        static_cast<double>(cell(256, 2).totalCycles) /
        static_cast<double>(base.totalCycles);
    const double wider_ratio =
        static_cast<double>(cell(128, 4).totalCycles) /
        static_cast<double>(base.totalCycles);
    std::printf("\n=== §3.5 claims check\n");
    std::printf("default 128/2-way vs no-MTLB (paper: ~2%% slower): "
                "%+.1f%%\n", 100.0 * (default_ratio - 1.0));
    std::printf("doubling size (256/2-way) erases it: %+.1f%%\n",
                100.0 * (bigger_ratio - 1.0));
    std::printf("doubling assoc (128/4-way) erases it: %+.1f%%\n",
                100.0 * (wider_ratio - 1.0));
    std::printf("em3d cache hit rate (paper: ~84%%): %.1f%%\n",
                100.0 * base.cacheHitRate);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("fig4_em3d_sensitivity", 1,
                   [&] { return run(argc, argv); });
}
