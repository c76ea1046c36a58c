/**
 * @file
 * The differential-fuzzer CLI.
 *
 * Runs seeded schedules against a real System in lockstep with the
 * oracle reference model (src/fuzz). On a mismatch the failing
 * schedule is written as a versioned `.fztrace` replay file and a
 * greedy shrinker minimizes it.
 *
 * Examples:
 *
 *   # nightly sweep: 200 schedules starting at seed 1
 *   tools/fuzz --seed 1 --runs 200 --ops 2000
 *
 *   # two-core sweep: ops round-robin over the cores, stale remote
 *   # TLB entries and missed shootdowns become lockstep failures
 *   tools/fuzz --seed 1 --runs 50 --cores 2
 *
 *   # prove every FaultInjector corruption class is caught
 *   tools/fuzz --self-test
 *
 *   # reproduce a failure byte-for-byte
 *   tools/fuzz --replay fuzz-42.fztrace
 *
 *   # minimize a recorded failure
 *   tools/fuzz --shrink fuzz-42.fztrace
 *
 * Exit status: 0 all runs clean / replay reproduced / self-test
 * passed; 1 mismatch found, replay diverged, or self-test failed;
 * 2 usage error or a malformed trace file, printed as
 * "fuzz: <message>".
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/schedule.hh"
#include "fuzz/shrink.hh"
#include "sim/config_parser.hh"

using namespace mtlbsim;
using namespace mtlbsim::fuzz;

namespace
{

void
usage()
{
    std::printf(
        "usage: fuzz [options]\n"
        "  --seed S           first schedule seed (default 1)\n"
        "  --runs N           schedules to run, seeds S..S+N-1 "
        "(default 1)\n"
        "  --ops N            operations per schedule (default "
        "2000)\n"
        "  --audit-every N    ops between oracle sweeps + audits "
        "(default 16)\n"
        "  --cores N          machine cores; ops are dispatched on\n"
        "                     core i %% N, all sharing one address\n"
        "                     space (default 1)\n"
        "  --batch            run every seed with the host fast path\n"
        "                     on (cpu.batch_enable); lockstep and\n"
        "                     final stats must be unchanged\n"
        "  --self-test        plant every FaultInjector corruption "
        "class and\n"
        "                     require the fuzzer to catch it\n"
        "  --replay FILE      re-run a recorded .fztrace and verify "
        "the outcome\n"
        "                     (including final stats) is "
        "byte-identical\n"
        "  --shrink FILE      minimize a failing .fztrace; writes "
        "FILE.min\n"
        "  --out-dir DIR      where failure traces go (default .)\n"
        "  --quiet            suppress per-run progress on stderr\n");
}

std::string
tracePath(const std::string &out_dir, std::uint64_t seed,
          bool minimized)
{
    return out_dir + "/fuzz-" + std::to_string(seed) +
           (minimized ? ".min.fztrace" : ".fztrace");
}

/** Re-run the shrunk @p ops and record them, outcome included. */
void
writeMinimized(const std::string &path, const FuzzParams &params,
               const std::vector<FuzzOp> &ops)
{
    Schedule minimized;
    minimized.params = params;
    minimized.params.numOps = static_cast<unsigned>(ops.size());
    minimized.ops = ops;
    writeTrace(path, minimized, runSchedule(minimized));
}

int
selfTest(bool quiet)
{
    const std::vector<SelfTestOutcome> outcomes = runSelfTest(true);
    std::size_t passed = 0;
    for (const SelfTestOutcome &out : outcomes) {
        const char *name = faultKindName(out.kind);
        const bool ok = out.detected && out.shrunkStillFails &&
                        out.shrunkOps <= 64;
        if (ok)
            ++passed;
        if (!quiet || !ok) {
            if (out.detected) {
                std::fprintf(
                    stderr,
                    "  %-20s %s via %s (shrunk to %u op%s%s)\n",
                    name, ok ? "caught" : "CAUGHT BUT NOT MINIMAL",
                    out.failure.detector.c_str(), out.shrunkOps,
                    out.shrunkOps == 1 ? "" : "s",
                    out.shrunkStillFails ? "" : ", shrink LOST it");
            } else {
                std::fprintf(stderr, "  %-20s MISSED\n", name);
            }
        }
    }
    std::printf("self-test: %zu/%zu corruption classes caught\n",
                passed, outcomes.size());
    return passed == outcomes.size() ? 0 : 1;
}

int
replay(const std::string &path, bool quiet)
{
    const FuzzTrace trace = loadTrace(path);
    const RunResult result = runSchedule(trace.schedule);

    bool ok = result.failed == trace.hasFailure;
    if (ok && trace.hasFailure) {
        ok = result.failure.opIndex == trace.failure.opIndex &&
             result.failure.detector == trace.failure.detector;
    }
    if (ok && !trace.finalStats.isNull()) {
        ok = result.finalStats.dumped(2) == trace.finalStats.dumped(2);
        if (!ok) {
            std::fprintf(stderr,
                         "replay: final stats diverge from the "
                         "recorded run\n");
        }
    }

    if (!quiet || !ok) {
        if (result.failed) {
            std::fprintf(stderr, "replay: op %u failed [%s] %s\n",
                         result.failure.opIndex,
                         result.failure.detector.c_str(),
                         result.failure.detail.c_str());
        } else {
            std::fprintf(stderr, "replay: run completed cleanly\n");
        }
    }
    std::printf("replay %s: %s\n", path.c_str(),
                ok ? "reproduced" : "DIVERGED");
    return ok ? 0 : 1;
}

int
shrinkFile(const std::string &path, bool quiet)
{
    const FuzzTrace trace = loadTrace(path);
    if (!trace.hasFailure) {
        std::fprintf(stderr,
                     "%s records no failure; nothing to shrink\n",
                     path.c_str());
        return 2;
    }

    const ShrinkResult sr =
        shrinkSchedule(trace.schedule.params, trace.schedule.ops,
                       trace.failure.detector);
    if (!sr.stillFails) {
        std::fprintf(stderr,
                     "failure in %s did not reproduce; is the bug "
                     "already fixed?\n",
                     path.c_str());
        return 1;
    }

    const std::string out_path = path + ".min";
    writeMinimized(out_path, trace.schedule.params, sr.ops);

    if (!quiet) {
        std::fprintf(stderr,
                     "shrunk %zu -> %zu ops in %u trials [%s]\n",
                     trace.schedule.ops.size(), sr.ops.size(),
                     sr.trials, sr.detector.c_str());
    }
    std::printf("minimized reproducer: %s (%zu ops)\n",
                out_path.c_str(), sr.ops.size());
    return 0;
}

/** The program proper; main() turns its errors into exit status 2. */
int
run(int argc, char **argv)
{
    std::uint64_t seed = 1;
    unsigned runs = 1;
    unsigned ops = 2000;
    unsigned audit_every = 16;
    unsigned cores = 1;
    bool batch = false;
    bool self_test = false;
    std::string replay_file;
    std::string shrink_file;
    std::string out_dir = ".";
    bool quiet = false;

    auto next_arg = [&](int &i) -> const char * {
        if (++i >= argc) {
            usage();
            std::exit(2);
        }
        return argv[i];
    };
    // A numeric flag's operand passes the config parser's check.
    auto count = [&]<typename T>(int &i, T &dest) {
        const std::string flag = argv[i];
        dest = static_cast<T>(parseCount(flag, next_arg(i),
                                         std::numeric_limits<T>::max()));
    };

    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (token == "--help" || token == "-h") {
            usage();
            return 0;
        } else if (token == "--seed") {
            count(i, seed);
        } else if (token == "--runs") {
            count(i, runs);
        } else if (token == "--ops") {
            count(i, ops);
        } else if (token == "--audit-every") {
            count(i, audit_every);
        } else if (token == "--cores") {
            count(i, cores);
            if (cores == 0) {
                std::fprintf(stderr,
                             "--cores wants a positive count\n");
                return 2;
            }
        } else if (token == "--batch") {
            batch = true;
        } else if (token == "--self-test") {
            self_test = true;
        } else if (token == "--replay") {
            replay_file = next_arg(i);
        } else if (token == "--shrink") {
            shrink_file = next_arg(i);
        } else if (token == "--out-dir") {
            out_dir = next_arg(i);
        } else if (token == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "unknown option: %s\n",
                         token.c_str());
            usage();
            return 2;
        }
    }

    if (self_test)
        return selfTest(quiet);
    if (!replay_file.empty())
        return replay(replay_file, quiet);
    if (!shrink_file.empty())
        return shrinkFile(shrink_file, quiet);

    unsigned failures = 0;
    for (unsigned r = 0; r < runs; ++r) {
        const std::uint64_t run_seed = seed + r;
        FuzzParams params =
            paramsForSeed(run_seed, ops, audit_every);
        params.cores = cores;
        if (batch)
            params.batch = true;
        const Schedule schedule = generateSchedule(params);
        const RunResult result = runSchedule(schedule);

        if (!result.failed) {
            if (!quiet) {
                std::fprintf(stderr, "  [%u/%u] seed %llu clean\n",
                             r + 1, runs,
                             static_cast<unsigned long long>(
                                 run_seed));
            }
            continue;
        }

        ++failures;
        const std::string path =
            tracePath(out_dir, run_seed, false);
        writeTrace(path, schedule, result);
        std::fprintf(stderr,
                     "  [%u/%u] seed %llu FAILED at op %u [%s] %s\n"
                     "          trace: %s\n",
                     r + 1, runs,
                     static_cast<unsigned long long>(run_seed),
                     result.failure.opIndex,
                     result.failure.detector.c_str(),
                     result.failure.detail.c_str(), path.c_str());

        // Minimize immediately: the shrunk trace is the artifact a
        // human debugs from.
        const ShrinkResult sr =
            shrinkSchedule(schedule.params, schedule.ops,
                           result.failure.detector, 300);
        if (sr.stillFails) {
            const std::string min_path =
                tracePath(out_dir, run_seed, true);
            writeMinimized(min_path, schedule.params, sr.ops);
            std::fprintf(stderr, "          minimized to %zu ops: %s\n",
                         sr.ops.size(), min_path.c_str());
        }
    }

    std::printf("fuzz: %u/%u runs clean (%u ops each, seeds %llu..%llu)\n",
                runs - failures, runs, ops,
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seed + runs - 1));
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("fuzz", 2, [&] { return run(argc, argv); });
}
