/**
 * @file
 * Configuration and report types for the invariant audit
 * subsystem.
 *
 * The simulator's translation state is spread across five structures
 * that must agree at all times: the CPU TLB, the OS address-space
 * records, the in-DRAM shadow table, the MTLB's cached copies of it,
 * and the frame allocator. The auditor walks them and reports every
 * cross-structure disagreement it finds, so that a bug which would
 * otherwise surface as a silently wrong cycle count is caught at the
 * audit boundary instead.
 *
 * This header is deliberately light (base/types only) so that
 * SystemConfig can embed a CheckConfig without pulling the audit
 * implementation into every translation unit.
 */

#pragma once

#include <string>
#include <vector>

#include "base/types.hh"

namespace mtlbsim
{

/** Audit-subsystem configuration (config keys: check.*). */
struct CheckConfig
{
    /** Run the auditor periodically from the CPU's cycle loop. A
     *  sweep job also audits once at the end of its run whenever
     *  this is set. */
    bool enabled = false;
    /** Cycles between periodic audits. */
    Cycles interval = 1'000'000;
    /** panic() on the first violating audit (the violation is a
     *  simulator bug by definition). When false, violations are
     *  reported through warn() and counted in the check.violations
     *  statistic — useful for surveying how far a corruption
     *  spreads. */
    bool panicOnViolation = true;
};

/** One invariant violation found by an audit. */
struct AuditViolation
{
    std::string invariant;  ///< invariant class, e.g. "frame-accounting"
    std::string detail;     ///< human-readable specifics
};

/** The outcome of one full audit pass. */
struct AuditReport
{
    std::vector<AuditViolation> violations;
    /** Invariant classes examined (some are skipped on machines
     *  without an MTLB). */
    std::uint64_t checksRun = 0;

    bool clean() const { return violations.empty(); }

    /** True if any violation belongs to @p invariant. */
    bool
    has(const std::string &invariant) const
    {
        for (const auto &v : violations) {
            if (v.invariant == invariant)
                return true;
        }
        return false;
    }
};

} // namespace mtlbsim
