/**
 * @file
 * Shared stats-equivalence test harness.
 *
 * The host fast path (cpu.batch_enable: the page memo plus batch
 * replay) claims the simulated machine is indistinguishable with it
 * on or off. This header turns that claim into a reusable check — run
 * the same driver under two SystemConfigs and require the final cycle
 * count, the gem5-style text dump, AND the full StatGroup JSON tree
 * to be byte-identical.
 *
 * Used by tests/test_l0_fastpath.cc, tests/test_batch_engine.cc and
 * tests/test_multicore.cc, which share its machine and helpers;
 * bench/simspeed.cc and the lockstep fuzzer enforce the same
 * contract at scale through their own cycle/final-stats fatals.
 */

#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "sim/system.hh"

namespace mtlbsim::testeq
{

constexpr Addr MB = 1024 * 1024;
/** Where the suites map their data region. */
constexpr Addr dataBase = 0x10000000;

/** A 64 MB machine with the host fast path on or off. */
inline SystemConfig
machine(bool batch_on)
{
    SystemConfig c;
    c.installedBytes = 64 * MB;
    c.cpu.batchEnable = batch_on;
    return c;
}

/** Core 0's live memo entry covering @p va, or null. */
inline const PageMemo::Entry *
liveEntry(System &sys, Addr va)
{
    return sys.tlb().memo().live(va, sys.tlb().translationEpoch());
}

/** Everything observable a run produces: final simulated time plus
 *  both serializations of the statistics tree. */
struct RunOutcome
{
    Cycles cycles = 0;
    std::string statsText;  ///< System::dumpStats
    std::string statsJson;  ///< StatGroup::toJson, dumped at indent 2
};

/**
 * Build a System from @p config, hand it to @p drive, and capture
 * the outcome. A statistic reads the batch engine's counts it
 * includes, so both captures see final values.
 */
template <typename DriveFn>
RunOutcome
runConfigured(const SystemConfig &config, DriveFn &&drive)
{
    System sys(config);
    drive(sys);

    RunOutcome out;
    out.cycles = sys.cpu().now();
    std::ostringstream os;
    sys.dumpStats(os);
    out.statsText = os.str();
    out.statsJson = sys.rootStats().toJson().dumped(2);
    return out;
}

/** Assert two outcomes are byte-identical in every observable. */
inline void
expectIdentical(const RunOutcome &a, const RunOutcome &b,
                const std::string &label = "")
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.statsText, b.statsText) << label;
    EXPECT_EQ(a.statsJson, b.statsJson) << label;
}

/**
 * The harness's main entry: run the same @p drive under @p reference
 * and @p candidate and assert full equivalence. The driver must be a
 * pure function of the System it is handed (deterministic, no
 * ambient state) or the comparison is meaningless.
 */
template <typename DriveFn>
void
expectConfigsEquivalent(const SystemConfig &reference,
                        const SystemConfig &candidate, DriveFn &&drive,
                        const std::string &label = "")
{
    const RunOutcome ref = runConfigured(reference, drive);
    const RunOutcome cand = runConfigured(candidate, drive);
    expectIdentical(ref, cand, label);
}

} // namespace mtlbsim::testeq
