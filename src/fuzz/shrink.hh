/**
 * @file
 * Greedy schedule minimizer for failing fuzz runs.
 *
 * A ddmin-style reducer: starting from half the schedule length and
 * halving down to single ops, repeatedly delete contiguous chunks
 * and keep each deletion that still reproduces the *same* detector
 * category on a fresh run. Apply-time guards (see schedule.hh) make
 * any subsequence of a schedule executable — removing a setup op
 * turns its dependents into deterministic no-ops — so the reducer
 * never has to repair the schedule.
 */

#pragma once

#include <string>
#include <vector>

#include "fuzz/schedule.hh"

namespace mtlbsim::fuzz
{

/** Outcome of minimizing one failing schedule. */
struct ShrinkResult
{
    /** The minimized op stream (still failing when stillFails). */
    std::vector<FuzzOp> ops;
    /** Whether the final ops still reproduce the original detector.
     *  False only if the input schedule did not fail as claimed. */
    bool stillFails = false;
    /** Detector of the minimized failure. */
    std::string detector;
    /** Fresh runs spent. */
    unsigned trials = 0;
};

/**
 * Minimize @p ops under @p params so the run still fails with
 * detector category @p detector. At most @p maxTrials fresh runs are
 * spent; the best schedule found so far is returned when the budget
 * runs out.
 */
ShrinkResult shrinkSchedule(const FuzzParams &params,
                            const std::vector<FuzzOp> &ops,
                            const std::string &detector,
                            unsigned maxTrials = 500);

} // namespace mtlbsim::fuzz
