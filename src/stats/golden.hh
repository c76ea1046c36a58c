/**
 * @file
 * Golden-stats files: record a run's structured statistics and
 * compare later runs against them exactly.
 *
 * A golden file is one JSON document (any shape; in practice the
 * sweep runner's per-job result object). Comparison flattens both
 * documents to dotted numeric leaves —
 *
 *     metrics.totalCycles            = 184729
 *     stats.system.kernel.stats.tlb_misses.value = 912
 *
 * — and reports every leaf whose value differs. The simulator is
 * deterministic, so there is no tolerance: a run either reproduces
 * its golden bit for bit or it drifted. Keys present on only one
 * side are reported as drift too.
 *
 * Etiquette: --record rewrites the baselines wholesale; only commit
 * re-recorded goldens together with the change that legitimately
 * moved the numbers, and say why in the commit message.
 */

#ifndef MTLBSIM_STATS_GOLDEN_HH
#define MTLBSIM_STATS_GOLDEN_HH

#include <map>
#include <string>
#include <vector>

#include "stats/json.hh"

namespace mtlbsim::stats
{

/** One differing (or missing) statistic. */
struct GoldenDiff
{
    std::string path;
    /** NaN marks a side where the key is absent. */
    double expected = 0.0;
    double actual = 0.0;

    std::string describe() const;
};

/**
 * Flatten every numeric (and null, recorded as NaN) leaf of @p value
 * into dotted-path form. Arrays use the index as the segment.
 * std::map keeps the result ordered and comparison deterministic.
 */
std::map<std::string, double> flattenNumeric(const json::Value &value);

/**
 * Compare @p actual against @p expected; returns the differing leaves
 * (empty means the run matches). Non-numeric leaves (strings, bools)
 * report with NaN markers on mismatch.
 */
std::vector<GoldenDiff> compareGolden(const json::Value &expected,
                                      const json::Value &actual);

/** Write @p value to @p path (pretty-printed, trailing newline). */
void writeGoldenFile(const std::string &path, const json::Value &value);

/** Parse a golden file; fatal() when unreadable or malformed. */
json::Value readGoldenFile(const std::string &path);

} // namespace mtlbsim::stats

#endif // MTLBSIM_STATS_GOLDEN_HH
