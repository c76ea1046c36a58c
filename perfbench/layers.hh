/**
 * @file
 * The traced run: where a workload's host time goes, layer by layer.
 *
 * Each single-core job runs once directly (phase times, stats tree),
 * then its op stream is captured with captureProgram() and replayed
 * on two fresh Systems through the benchmark's own loop over the
 * public Cpu calls, one plain and one traced, alternating in chunks of
 * ops. The traced replay classifies every op by the public counters it
 * moved (page fault, TLB miss, MTLB miss, cache miss, fast hit,
 * execute, kernel service) and times one op in eight, less the mean of
 * empty clock pairs timed between the ops of the same replay; every
 * kernel service is timed. A missing access's layer time is its op
 * count times its mean cost above a fast hit. What timing an op alone
 * adds over the plain replay is reported as its own row and taken out
 * of the fast-hit and execute rows, so the layers sum to the plain
 * replay.
 *
 * The multiprogrammed mix times captureProgram() and runPrograms()
 * separately, with audits on and off, and traces single-core replays
 * of its captured programs (the scheduler's interleaving is not
 * traced).
 *
 * None of these numbers feed the end-to-end metrics.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <vector>

#include "jobs.hh"

namespace perfbench
{

struct TracedRun
{
    std::vector<Metric> metrics;    ///< the per-layer metrics
    unsigned attempted = 0;         ///< jobs checked
    unsigned failed = 0;
};

/** Run @p w traced, printing the per-layer table to stdout. */
TracedRun runTraced(const WorkloadSpec &w,
                    const mtlbsim::SystemConfig &machine,
                    std::uint64_t seed, const References &refs);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
