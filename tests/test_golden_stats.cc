/**
 * @file
 * Golden-stats regression tests: re-run the five paper workloads on
 * the configs/paper.cfg machine at the recorded scale and compare
 * every statistic against the committed baselines in tests/golden/.
 * The comparison is exact: any drift — a changed counter or derived
 * value, a missing stat, an unexpected new one — fails with a
 * per-stat report.
 *
 * To re-record after a change that legitimately moves the numbers:
 *
 *   build/tools/sweep --matrix golden --config configs/paper.cfg \
 *       --scale 0.05 --record --golden-dir tests/golden
 *
 * and commit the diff together with the change (and say why).
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/config_parser.hh"
#include "stats/golden.hh"
#include "sweep/matrix.hh"
#include "sweep/sweep.hh"

using namespace mtlbsim;
using namespace mtlbsim::stats;

namespace
{

/** Must match the scale the committed baselines were recorded at. */
constexpr double kGoldenScale = 0.05;

const std::string kRepoRoot = MTLBSIM_REPO_ROOT;

class GoldenStats : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(GoldenStats, MatchesCommittedBaseline)
{
    const std::string workload = GetParam();

    ConfigParser parser;
    parser.parseFile(kRepoRoot + "/configs/paper.cfg");

    const auto matrix =
        sweep::goldenMatrix(kGoldenScale, parser.config());
    const auto result =
        sweep::SweepRunner::runOne(matrix.job(workload));
    ASSERT_TRUE(result.ok) << result.error;

    const auto golden = readGoldenFile(
        kRepoRoot + "/tests/golden/" + workload + ".json");
    const auto diffs =
        compareGolden(golden, sweep::resultToJson(result));

    std::string report;
    for (const auto &d : diffs)
        report += "  " + d.describe() + "\n";
    EXPECT_TRUE(diffs.empty())
        << workload << " drifted from tests/golden/" << workload
        << ".json (" << diffs.size() << " stats):\n" << report
        << "If the change legitimately moves the numbers, re-record "
        << "with tools/sweep --record (see file header).";
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorkloads, GoldenStats,
    ::testing::Values("compress95", "vortex", "radix", "em3d", "cc1",
                      "multicore_mix"),
    [](const auto &info) { return info.param; });
