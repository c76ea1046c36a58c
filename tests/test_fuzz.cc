/**
 * @file
 * Tests for the differential fuzzer (src/fuzz): the oracle reference
 * model, schedule generation/serialization, clean-run and replay
 * determinism, the shrinker, and the FaultInjector self-test.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "fuzz/fuzzer.hh"
#include "fuzz/oracle.hh"
#include "fuzz/schedule.hh"
#include "fuzz/shrink.hh"

using namespace mtlbsim;
using namespace mtlbsim::fuzz;

namespace
{

constexpr Addr KB = 1024;

// ---------------------------------------------------------------
// OracleMemory
// ---------------------------------------------------------------

TEST(Oracle, TracksFramesAndAccessBits)
{
    OracleMemory oracle;
    oracle.addRegion(fuzzDataBase, fuzzDataBytes, true);

    EXPECT_FALSE(oracle.present(fuzzDataBase));
    oracle.onPageMapped(fuzzDataBase, 42);
    EXPECT_TRUE(oracle.present(fuzzDataBase));
    EXPECT_EQ(oracle.frameOf(fuzzDataBase + 123), 42u);

    EXPECT_FALSE(oracle.referenced(fuzzDataBase));
    oracle.noteAccess(fuzzDataBase + 8, false);
    EXPECT_TRUE(oracle.referenced(fuzzDataBase));
    EXPECT_FALSE(oracle.dirty(fuzzDataBase));
    oracle.noteAccess(fuzzDataBase + 8, true);
    EXPECT_TRUE(oracle.dirty(fuzzDataBase));

    // Unmapping drops the frame and the access bits.
    oracle.onPageUnmapped(fuzzDataBase, 42);
    EXPECT_FALSE(oracle.present(fuzzDataBase));
    EXPECT_FALSE(oracle.referenced(fuzzDataBase));
    EXPECT_TRUE(oracle.eventErrors().empty());
}

TEST(Oracle, FlagsInconsistentEvents)
{
    OracleMemory oracle;
    oracle.addRegion(fuzzDataBase, fuzzDataBytes, true);

    oracle.onPageMapped(fuzzDataBase, 1);
    oracle.onPageMapped(fuzzDataBase, 2);    // double map
    ASSERT_EQ(oracle.eventErrors().size(), 1u);

    oracle.onPageUnmapped(fuzzDataBase + 4096, 9);  // absent page
    ASSERT_EQ(oracle.eventErrors().size(), 2u);

    oracle.onPageUnmapped(fuzzDataBase, 7);  // wrong frame
    ASSERT_EQ(oracle.eventErrors().size(), 3u);
}

TEST(Oracle, SuperpageLifecycleClearsAccessBits)
{
    OracleMemory oracle;
    oracle.addRegion(fuzzDataBase, fuzzDataBytes, true);

    for (unsigned i = 0; i < 4; ++i)
        oracle.onPageMapped(fuzzDataBase + i * 4 * KB, 100 + i);
    oracle.noteAccess(fuzzDataBase + 4 * KB, true);

    // A new superpage rewrites every covered PTE: R/D restart clean.
    oracle.onSuperpageCreated(fuzzDataBase, 0x80000000, 1);
    EXPECT_FALSE(oracle.referenced(fuzzDataBase + 4 * KB));
    EXPECT_FALSE(oracle.dirty(fuzzDataBase + 4 * KB));

    const OracleSuperpage *sp =
        oracle.superpageCovering(fuzzDataBase + 15 * KB);
    ASSERT_NE(sp, nullptr);
    EXPECT_EQ(sp->vbase, fuzzDataBase);
    EXPECT_EQ(sp->sizeClass, 1u);
    EXPECT_EQ(oracle.superpageCovering(fuzzDataBase + 16 * KB),
              nullptr);
    EXPECT_TRUE(oracle.eventErrors().empty());
}

TEST(Oracle, ExpectedSwapWriteCounts)
{
    OracleMemory oracle;
    oracle.addRegion(fuzzDataBase, fuzzDataBytes, true);

    for (unsigned i = 0; i < 4; ++i)
        oracle.onPageMapped(fuzzDataBase + i * 4 * KB, 100 + i);
    oracle.onSuperpageCreated(fuzzDataBase, 0x80000000, 1);
    oracle.noteAccess(fuzzDataBase, true);           // dirty
    oracle.noteAccess(fuzzDataBase + 4 * KB, false); // clean ref
    oracle.onPageUnmapped(fuzzDataBase + 12 * KB, 103);

    // Pagewise: only present+dirty pages are written.
    EXPECT_EQ(oracle.expectedPagewiseWrites(fuzzDataBase + 5 * KB), 1u);
    // Whole: every present page is written.
    EXPECT_EQ(oracle.expectedWholeWrites(fuzzDataBase + 5 * KB), 3u);
    // Outside any superpage: nothing.
    EXPECT_EQ(oracle.expectedWholeWrites(fuzzDataBase + 64 * KB), 0u);
}

// ---------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------

TEST(Schedule, GenerationIsDeterministic)
{
    const FuzzParams params = paramsForSeed(7, 500, 16);
    const Schedule a = generateSchedule(params);
    const Schedule b = generateSchedule(params);
    ASSERT_EQ(a.ops.size(), 500u);
    EXPECT_TRUE(a.ops == b.ops);

    const Schedule c = generateSchedule(paramsForSeed(8, 500, 16));
    EXPECT_FALSE(a.ops == c.ops);
}

TEST(Schedule, ParamsForSeedCoversMachineCorners)
{
    bool saw_plain = false, saw_batch = false, saw_all_shadow = false;
    bool saw_promotion_off = false;
    for (std::uint64_t s = 1; s <= 12; ++s) {
        const FuzzParams p = paramsForSeed(s, 100, 16);
        saw_plain |= !p.batch;
        saw_batch |= p.batch;
        saw_all_shadow |= p.allShadowMode;
        saw_promotion_off |= !p.onlinePromotion;
        EXPECT_EQ(p.seed, s);
    }
    EXPECT_TRUE(saw_plain);
    EXPECT_TRUE(saw_batch);
    EXPECT_TRUE(saw_all_shadow);
    EXPECT_TRUE(saw_promotion_off);
}

TEST(Schedule, JsonRoundTrip)
{
    const Schedule s = generateSchedule(paramsForSeed(11, 200, 8));

    const FuzzParams params2 = paramsFromJson(paramsToJson(s.params));
    EXPECT_TRUE(params2 == s.params);

    const std::vector<FuzzOp> ops2 = opsFromJson(opsToJson(s.ops));
    EXPECT_TRUE(ops2 == s.ops);
}

TEST(Schedule, JsonRoundTripKeepsSeedsPast2To53)
{
    // --seed takes any 64-bit value, and a double holds an integer
    // exactly only below 2^53: seed 2^53 + 1 is the first to round,
    // and at 2^53 + 2 the odd frame seed (12345 + seed) rounds. The
    // trace is read back from its text, as a replay reads it.
    for (const std::uint64_t seed :
         {(std::uint64_t{1} << 53) + 1, (std::uint64_t{1} << 53) + 2}) {
        const FuzzParams params = paramsForSeed(seed, 10, 4);
        const FuzzParams back = paramsFromJson(
            json::Value::parse(paramsToJson(params).dumped(0)));
        EXPECT_TRUE(back == params) << "seed " << seed;
        EXPECT_EQ(back.seed, seed);
        EXPECT_EQ(back.frameSeed, params.frameSeed);
    }
}

// ---------------------------------------------------------------
// Lockstep runs
// ---------------------------------------------------------------

TEST(Fuzzer, CleanTreeRunsClean)
{
    const Schedule schedule = generateSchedule(paramsForSeed(3, 400, 8));
    const RunResult result = runSchedule(schedule);
    EXPECT_FALSE(result.failed)
        << "[" << result.failure.detector << "] "
        << result.failure.detail;
    EXPECT_EQ(result.opsExecuted, schedule.ops.size());
    EXPECT_FALSE(result.finalStats.isNull());
}

TEST(Fuzzer, RunsAreDeterministic)
{
    const Schedule schedule = generateSchedule(paramsForSeed(5, 300, 8));
    const RunResult a = runSchedule(schedule);
    const RunResult b = runSchedule(schedule);
    ASSERT_FALSE(a.failed);
    ASSERT_FALSE(b.failed);
    // Replay byte-identity: the whole stats tree, dumped, matches.
    EXPECT_EQ(a.finalStats.dumped(2), b.finalStats.dumped(2));
}

TEST(Fuzzer, TraceFileRoundTripsByteIdentically)
{
    const Schedule schedule = generateSchedule(paramsForSeed(9, 250, 8));
    const RunResult result = runSchedule(schedule);
    ASSERT_FALSE(result.failed);

    const std::string path = "test_fuzz_roundtrip.fztrace";
    writeTrace(path, schedule, result);
    const FuzzTrace trace = loadTrace(path);
    std::remove(path.c_str());

    EXPECT_TRUE(trace.schedule.params == schedule.params);
    EXPECT_TRUE(trace.schedule.ops == schedule.ops);
    EXPECT_FALSE(trace.hasFailure);

    // Re-running the loaded schedule reproduces the recorded stats
    // byte-for-byte — the property `tools/fuzz --replay` enforces.
    const RunResult rerun = runSchedule(trace.schedule);
    EXPECT_EQ(rerun.finalStats.dumped(2), trace.finalStats.dumped(2));
}

TEST(Fuzzer, RejectsMalformedTraces)
{
    json::Value v = json::Value::object();
    v.set("format", json::Value("not-a-trace"));
    v.set("version", json::Value(1));
    EXPECT_THROW(traceFromJson(v), FatalError);

    // Integer fields: negative, fractional, non-finite and
    // out-of-range values are errors naming the field, never a
    // silent truncation or a crash.
    const json::Value good = traceToJson(
        generateSchedule(paramsForSeed(1, 4, 2)), RunResult{});
    ASSERT_NO_THROW(traceFromJson(good));
    auto with_param = [&good](const char *key, json::Value value) {
        json::Value t = good;
        json::Value params = *t.find("params");
        params.set(key, std::move(value));
        t.set("params", std::move(params));
        return t;
    };
    auto expect_rejected = [](const json::Value &t, const char *key) {
        try {
            traceFromJson(t);
            ADD_FAILURE() << key << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    };
    expect_rejected(with_param("cores", json::Value(4294967298.0)),
                    "'cores'");
    expect_rejected(with_param("cores", json::Value(1.5)), "'cores'");
    expect_rejected(with_param("cores", json::Value(-1)), "'cores'");
    expect_rejected(with_param("seed", json::Value(1e30)), "'seed'");
    expect_rejected(with_param("num_ops", json::Value(std::nan(""))),
                    "'num_ops'");
    expect_rejected(with_param("tlb_entries", json::Value("8")),
                    "'tlb_entries'");

    json::Value bad_op = good;
    json::Value ops = json::Value::array();
    json::Value triple = json::Value::array();
    triple.push(json::Value("load"));
    triple.push(json::Value(-4096));
    triple.push(json::Value(0));
    ops.push(std::move(triple));
    bad_op.set("ops", std::move(ops));
    expect_rejected(bad_op, "'ops[0][1]'");

    json::Value bad_version = good;
    bad_version.set("version", json::Value(1.5));
    expect_rejected(bad_version, "'version'");

    json::Value bad_failure = good;
    json::Value failure = json::Value::object();
    failure.set("op", json::Value(-2));
    failure.set("detector", json::Value("oracle"));
    failure.set("detail", json::Value(""));
    bad_failure.set("failure", std::move(failure));
    expect_rejected(bad_failure, "'failure.op'");
}

// Regression: remap() must never build a superpage spanning an
// existing one. Found by the fuzzer (seeds 1 and 4 of the first
// campaign): the 256 KB chunk at 0x100b4000 would swallow the live
// 16 KB superpage at 0x100c4000, double-mapping its frames.
TEST(Fuzzer, OverlappingRemapsStayCoherent)
{
    FuzzParams params = paramsForSeed(1, 10, 1);
    params.allShadowMode = true;

    Schedule schedule;
    schedule.params = params;
    schedule.params.numOps = 2;
    schedule.ops = {
        {OpKind::Remap, fuzzDataBase + 0xc4000, 16 * KB},
        {OpKind::Remap, fuzzDataBase + 0xb4000, 256 * KB},
    };

    const RunResult result = runSchedule(schedule);
    EXPECT_FALSE(result.failed)
        << "[" << result.failure.detector << "] "
        << result.failure.detail;
}

// ---------------------------------------------------------------
// Multi-core lockstep: ops round-robin over the cores (all bound to
// process 0), the oracle stays flat per address space, and every
// access validates the issuing core plus any remote core that still
// caches a translation for that address.
// ---------------------------------------------------------------

TEST(Multicore, CleanTreeRunsCleanOnTwoAndFourCores)
{
    for (unsigned cores : {2u, 4u}) {
        FuzzParams params = paramsForSeed(3, 400, 8);
        params.cores = cores;
        const Schedule schedule = generateSchedule(params);
        const RunResult result = runSchedule(schedule);
        EXPECT_FALSE(result.failed)
            << cores << " cores: [" << result.failure.detector
            << "] " << result.failure.detail;
        EXPECT_EQ(result.opsExecuted, schedule.ops.size());
    }
}

TEST(Multicore, RunsAreDeterministic)
{
    FuzzParams params = paramsForSeed(5, 300, 8);
    params.cores = 2;
    const Schedule schedule = generateSchedule(params);
    const RunResult a = runSchedule(schedule);
    const RunResult b = runSchedule(schedule);
    ASSERT_FALSE(a.failed)
        << "[" << a.failure.detector << "] " << a.failure.detail;
    ASSERT_FALSE(b.failed);
    EXPECT_EQ(a.finalStats.dumped(2), b.finalStats.dumped(2));
}

TEST(Multicore, CoresFieldRoundTripsAndDefaultsToOne)
{
    FuzzParams params = paramsForSeed(11, 200, 8);
    params.cores = 4;
    EXPECT_EQ(paramsFromJson(paramsToJson(params)).cores, 4u);

    // A trace recorded before the field existed (rebuild the params
    // object without "cores") must replay single-core.
    const json::Value recorded = paramsToJson(params);
    json::Value legacy = json::Value::object();
    for (const auto &[key, value] : recorded.members()) {
        if (key != "cores")
            legacy.set(key, value);
    }
    EXPECT_EQ(paramsFromJson(legacy).cores, 1u);
}

TEST(Multicore, SkipShootdownTripsCrossCoreInvariant)
{
    const Schedule schedule =
        selfTestSchedule(FaultKind::SkipShootdown);
    ASSERT_EQ(schedule.params.cores, 2u);
    const RunResult result = runSchedule(schedule);
    ASSERT_TRUE(result.failed)
        << "suppressed shootdown was not detected";
    EXPECT_EQ(result.failure.detector, "audit:cross-core-coherence");
}

// ---------------------------------------------------------------
// Self-test: every corruption class must be caught, and the
// shrinker must keep each reproducer small without losing the bug.
// ---------------------------------------------------------------

TEST(Fuzzer, SelfTestCatchesEveryFaultKind)
{
    const std::vector<SelfTestOutcome> outcomes = runSelfTest(true);
    ASSERT_EQ(outcomes.size(), numFaultKinds);
    for (const SelfTestOutcome &out : outcomes) {
        EXPECT_TRUE(out.detected)
            << faultKindName(out.kind) << " was not detected";
        if (!out.detected)
            continue;
        EXPECT_TRUE(out.shrunkStillFails)
            << faultKindName(out.kind) << " lost in shrinking";
        EXPECT_LE(out.shrunkOps, 64u) << faultKindName(out.kind);
    }
}

TEST(Fuzzer, ShrinkerPreservesDetectorCategory)
{
    // Pad a failing self-test schedule with irrelevant loads; the
    // shrinker must strip them and keep the same detector.
    const Schedule base = selfTestSchedule(FaultKind::DoubleMapFrame);
    Schedule padded = base;
    for (unsigned i = 0; i < 24; ++i) {
        padded.ops.insert(padded.ops.begin() + 2,
                          {OpKind::Load,
                           fuzzDataBase + (i % 8) * 4 * KB, 0});
    }
    padded.params.numOps = static_cast<unsigned>(padded.ops.size());

    const RunResult full = runSchedule(padded);
    ASSERT_TRUE(full.failed);

    const ShrinkResult sr = shrinkSchedule(
        padded.params, padded.ops, full.failure.detector, 300);
    ASSERT_TRUE(sr.stillFails);
    EXPECT_EQ(sr.detector, full.failure.detector);
    EXPECT_LT(sr.ops.size(), padded.ops.size());
    EXPECT_LE(sr.ops.size(), base.ops.size());
}

} // namespace
