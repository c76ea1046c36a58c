/**
 * @file
 * The paper's experiments, as one table: each entry holds an
 * experiment's job matrix (its design space and job ids) and the
 * printer of its tables. tools/sweep runs any of them by name, or
 * every one as a single sweep ("all"); simspeed and the regression
 * tests reuse the matrices.
 */

#pragma once

#include <string>
#include <vector>

#include "sweep/sweep.hh"

namespace mtlbsim::sweep
{

/** A named job list, and the tables printed from its results. */
struct SweepMatrix
{
    /** Prints an experiment's tables on stdout from a sweep's
     *  results, which hold every one of its jobs, each ok. */
    using Printer = void (*)(const std::vector<SweepResult> &results,
                             double scale);

    std::string name;
    /** The dataset scale the jobs were built at. */
    double scale = 1.0;
    std::vector<SweepJob> jobs;
    /** One per experiment in the matrix; empty for golden, whose
     *  JSON is its output. */
    std::vector<Printer> printers;

    /** The job with @p id; fatal when absent. */
    const SweepJob &job(const std::string &id) const;

    /** Every printer's tables, a blank line apart. */
    void printTables(const std::vector<SweepResult> &results) const;
};

/** The paper's machine with a given CPU TLB size and MTLB
 *  presence/geometry (§3.4 defaults). */
SystemConfig paperConfig(unsigned tlb_entries, bool mtlb_enabled,
                         unsigned mtlb_entries = 128,
                         unsigned mtlb_assoc = 2);

/**
 * Figure 3's design space: the five §3.1 programs x CPU TLB sizes
 * {64,96,128} x {no MTLB, 128-entry 2-way MTLB}, plus the §3.4
 * radix run at a 256-entry TLB. Job ids: "fig3/<workload>/tlb<N>"
 * with "+mtlb" appended for MTLB configurations.
 */
SweepMatrix fig3Matrix(double scale);

/**
 * The golden-baseline matrix: each of the five paper programs on
 * @p machine (configs/paper.cfg in the committed baselines), plus a
 * 4-process mix on two cores. Job ids are the bare workload names
 * and "multicore_mix".
 */
SweepMatrix goldenMatrix(double scale, const SystemConfig &machine);

/** Every name makeMatrix accepts: each experiment's, in the order
 *  "all" runs them, then "all". */
std::vector<std::string> matrixNames();

/**
 * The matrix @p name at dataset scale @p scale: one experiment's, or
 * "all", every experiment that prints tables, as one sweep. @p base
 * is golden's machine; the other experiments define their own.
 * Fatal, naming every matrix, when there is none so named.
 */
SweepMatrix makeMatrix(const std::string &name, double scale,
                       const SystemConfig &base);

} // namespace mtlbsim::sweep
