/**
 * @file
 * Shared experiment runner used by the bench/ harnesses.
 *
 * Runs one (workload, machine configuration) pair and extracts the
 * metrics the paper's tables and figures report.
 */

#pragma once

#include <string>

#include "sim/system.hh"
#include "workloads/workload.hh"

namespace mtlbsim
{

/** Metrics extracted from one simulated run. */
struct ExperimentResult
{
    std::string workload;
    unsigned tlbEntries = 0;
    bool mtlbEnabled = false;
    unsigned mtlbEntries = 0;
    unsigned mtlbAssoc = 0;

    Cycles totalCycles = 0;
    Cycles tlbMissCycles = 0;       ///< Fig 3's shaded fraction
    double tlbMissFraction = 0.0;
    double avgFillCycles = 0.0;     ///< Fig 4(B)'s metric
    double mtlbHitRate = 0.0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t cacheMisses = 0;
    double cacheHitRate = 0.0;

    Cycles remapTotalCycles = 0;    ///< §3.3 breakdown
    Cycles remapFlushCycles = 0;
    std::uint64_t remapPages = 0;
    std::size_t superpages = 0;
};

/**
 * Run @p workload_name at @p scale on a machine described by
 * @p config; returns the collected metrics.
 */
ExperimentResult runExperiment(const std::string &workload_name,
                               double scale,
                               const SystemConfig &config);

/**
 * Extract the paper's headline metrics from an already-driven
 * system (shared by runExperiment and the sweep runner).
 */
ExperimentResult collectMetrics(System &sys,
                                const std::string &workload_name);

/** Convenience: the paper's machine with a given CPU TLB size and
 *  MTLB presence/geometry (§3.4 defaults). */
SystemConfig paperConfig(unsigned tlb_entries, bool mtlb_enabled,
                         unsigned mtlb_entries = 128,
                         unsigned mtlb_assoc = 2);

} // namespace mtlbsim
