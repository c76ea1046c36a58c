/**
 * @file
 * The scenarios of the paper's synthetic experiments: each drives a
 * job's System directly, in place of a workload, and reports the
 * named values its experiment's tables print (sweep/matrix.cc).
 */

#pragma once

#include <cstdint>

#include "sweep/sweep.hh"

namespace mtlbsim::sweep
{

/**
 * Figure 2's ablation, on host data structures alone (the job's
 * machine stays idle): a bucket allocator over a 512 MB shadow space
 * must hold exactly BucketShadowAllocator::defaultPartition()'s
 * superpages, or the job fails; then it and a buddy allocator serve
 * a maximal-superpage request mix seeded by @p seed until each first
 * fails. Values: bucket_bytes and buddy_bytes delivered.
 */
ScenarioValues fig2Exhaustion(System &sys, std::uint64_t seed);

/** §3.3: remap() 64 warm, partly dirty pages. Value:
 *  flush_cycles_per_page. */
ScenarioValues flushCost(System &sys);

/** §3.3: a kernel word copy of a 4 KB page with a warm source.
 *  Value: copy_cycles. */
ScenarioValues warmCopyCost(System &sys);

/**
 * §2.5: dirty @p dirty_pct percent of a 1 MB shadow superpage's base
 * pages, then swap it out page-wise or whole. Values: pages_written,
 * pages_clean and cycles.
 */
ScenarioValues swapOut(System &sys, unsigned dirty_pct, bool pagewise);

/** §6: how the conflicting pages are recolored. */
enum class Recolor { None, Copy, Shadow };

/** The recoloring scenario's colliding page pairs and the rounds it
 *  hammers them for. */
constexpr unsigned recolorPairCount = 16;
constexpr unsigned recolorRounds = 2000;

/**
 * §6: find recolorPairCount pairs of hot pages that collide in a
 * physically indexed cache, fix them by @p policy, then hammer them
 * for recolorRounds rounds. Values:
 * fix_cycles, hammer_cycles and cache_misses (over the hammer).
 * Fails when the pages hold too few conflicts.
 */
ScenarioValues recolorPairs(System &sys, Recolor policy);

/** §4: a TLB-friendly program that gains nothing from superpages;
 *  its run time is the job's total cycles. No values. */
ScenarioValues superpageAgnostic(System &sys);

/**
 * §2.5's open question: CLOCK over a watched 1 MB shadow superpage
 * while @p stream_mb of competing data streams through the cache
 * each interval. Values: false_idle_pct (touched pages the bits call
 * idle) and true_idle_pct (untouched pages called idle).
 */
ScenarioValues clockFidelity(System &sys, unsigned stream_mb);

} // namespace mtlbsim::sweep
