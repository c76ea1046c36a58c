/**
 * @file
 * The lockstep differential fuzzer.
 *
 * Drives a real System through a schedule while an OracleMemory
 * reference model shadows every mapping event through the kernel's
 * KernelObserver hooks. After every access the fuzzer compares the
 * machine against the oracle:
 *
 *  - translation: the TLB entry covering the access — followed
 *    through the shadow table when it names a shadow address — must
 *    resolve to the oracle's real frame;
 *  - presence and protection: the access must leave the page
 *    present, under a TLB entry whose protection matches the
 *    oracle's region;
 *  - R/D soundness: hardware referenced/dirty bits (table bits
 *    joined with the MTLB's deferred copies, valid PTEs only) may
 *    never exceed what the program actually did;
 *  - swap results: a pagewise swap must write exactly the oracle's
 *    dirty pages; a whole-superpage swap exactly the present ones;
 *  - superpage records and every TranslationAuditor invariant.
 *
 * With FuzzParams::cores > 1 the op stream round-robins over the
 * cores, all bound to process 0 (the oracle stays flat per address
 * space). After every access the fuzzer validates not just the
 * issuing core's entry but any translation a remote core still
 * caches for that address, and the periodic auditor pass covers the
 * cross-core-coherence invariant — so a missed shootdown broadcast
 * is caught either way.
 *
 * On a mismatch the run stops with a detector tag and the schedule
 * can be written to a versioned `.fztrace` replay file; replaying a
 * trace reproduces the run — including its final statistics —
 * byte-identically. A self-test mode asserts that every
 * FaultInjector corruption class is caught.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/oracle.hh"
#include "fuzz/schedule.hh"
#include "sim/system.hh"
#include "stats/json.hh"

namespace mtlbsim::fuzz
{

/** The `.fztrace` format marker and version. */
constexpr const char *fztraceFormat = "mtlbsim-fztrace";
constexpr unsigned fztraceVersion = 1;

/** One detected mismatch. */
struct FuzzFailure
{
    unsigned opIndex = 0;
    /** Detector category — stable across reruns of the same bug, so
     *  the shrinker can insist on reproducing the *same* failure:
     *  "translation", "presence", "protection", "rd-soundness",
     *  "swap-result", "superpage-records", "oracle-events",
     *  "audit:<invariant>", or "exception". */
    std::string detector;
    std::string detail;
};

/** Outcome of running one schedule. */
struct RunResult
{
    bool failed = false;
    FuzzFailure failure;
    unsigned opsExecuted = 0;
    /** Root stats at the point the run stopped (end of schedule, or
     *  the failing op); deterministic, so replay can compare it
     *  byte-for-byte. */
    json::Value finalStats;
};

/**
 * One fuzzing run: a fresh System lockstepped against a fresh
 * oracle. Single-use — construct a new instance per schedule.
 */
class DifferentialFuzzer
{
  public:
    explicit DifferentialFuzzer(const FuzzParams &params);
    ~DifferentialFuzzer();

    DifferentialFuzzer(const DifferentialFuzzer &) = delete;
    DifferentialFuzzer &operator=(const DifferentialFuzzer &) = delete;

    /** Execute @p ops until done or the first mismatch. */
    RunResult run(const std::vector<FuzzOp> &ops);

    System &system() { return *sys_; }
    const OracleMemory &oracle() const { return oracle_; }

  private:
    class ObserverAdapter;

    void applyOp(const FuzzOp &op, unsigned index);
    void applyInject(FaultKind kind, unsigned index);
    void checkAccess(Addr vaddr, unsigned index, unsigned core);
    void runPeriodicChecks(unsigned index);
    void fail(unsigned index, std::string detector, std::string detail);

    FuzzParams params_;
    OracleMemory oracle_;
    std::unique_ptr<ObserverAdapter> adapter_;
    std::unique_ptr<System> sys_;
    std::optional<FuzzFailure> failure_;
};

/** Convenience: run @p schedule on a fresh fuzzer. */
RunResult runSchedule(const Schedule &schedule);

/** @name Self-test: every FaultInjector class must be caught */
/** @{ */

/** Machine/checking parameters the self-test schedules assume. */
FuzzParams selfTestParams(unsigned num_ops);

/** Hand-crafted minimal schedule that plants @p kind and gives the
 *  fuzzer one chance to catch it. */
Schedule selfTestSchedule(FaultKind kind);

struct SelfTestOutcome
{
    FaultKind kind = FaultKind::DoubleMapFrame;
    bool detected = false;
    FuzzFailure failure;        ///< valid when detected
    unsigned shrunkOps = 0;     ///< minimized reproducer size
    bool shrunkStillFails = false;
};

/** Run the self-test for every fault kind; @p shrink additionally
 *  minimizes each reproducer. */
std::vector<SelfTestOutcome> runSelfTest(bool shrink);

/** @} */

/** @name .fztrace files */
/** @{ */
json::Value traceToJson(const Schedule &schedule,
                        const RunResult &result);

struct FuzzTrace
{
    Schedule schedule;
    bool hasFailure = false;
    FuzzFailure failure;
    json::Value finalStats;     ///< null when the trace omitted it
};

FuzzTrace traceFromJson(const json::Value &v);
void writeTrace(const std::string &path, const Schedule &schedule,
                const RunResult &result);
FuzzTrace loadTrace(const std::string &path);
/** @} */

} // namespace mtlbsim::fuzz
