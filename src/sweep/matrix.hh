/**
 * @file
 * Shared job matrices: each paper figure's design space, defined
 * once and consumed by the bench harnesses, the tools/sweep CLI, and
 * the regression tests.
 */

#pragma once

#include <string>
#include <vector>

#include "sweep/sweep.hh"

namespace mtlbsim::sweep
{

/** A named job list. */
struct SweepMatrix
{
    std::string name;
    std::vector<SweepJob> jobs;

    /** The job with @p id; fatal when absent. */
    const SweepJob &job(const std::string &id) const;
};

/**
 * Figure 3's design space: the five §3.1 programs x CPU TLB sizes
 * {64,96,128} x {no MTLB, 128-entry 2-way MTLB}, plus the §3.4
 * radix run at a 256-entry TLB. Job ids: "fig3/<workload>/tlb<N>"
 * with "+mtlb" appended for MTLB configurations.
 */
SweepMatrix fig3Matrix(double scale);

/**
 * Figure 4's design space: em3d on a 128-entry CPU TLB, no-MTLB
 * baseline ("fig4/em3d/no-mtlb") plus MTLB size {64,128,256,512} x
 * associativity {1,2,4,8} ("fig4/em3d/m<entries>x<assoc>").
 */
SweepMatrix fig4Matrix(double scale);

/**
 * The golden-baseline matrix: each of the five paper programs on
 * @p machine (configs/paper.cfg in the committed baselines). Job
 * ids are the bare workload names.
 */
SweepMatrix goldenMatrix(double scale, const SystemConfig &machine);

/**
 * Build a matrix by name. @p base is the machine for "golden"
 * (ignored by the figure matrices, which define their own machines).
 */
SweepMatrix makeMatrix(const std::string &name, double scale,
                       const SystemConfig &base);

} // namespace mtlbsim::sweep
