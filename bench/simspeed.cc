/**
 * @file
 * Simulator-speed benchmark: simulated accesses per host second.
 *
 * Measures host throughput — NOT simulated time — of the full Fig 3
 * design space in two modes: "baseline" (the plain path,
 * cpu.batch_enable off) and "batch" (the page memo plus batch
 * replay). Both modes must produce identical simulated cycle and
 * access counts; the harness fatals on any divergence, making every
 * speed run double as a behaviour-identity check of the fast path.
 *
 * A second point times an audited multiprogrammed mix, the shape of
 * perfbench's mix-audited workload: 8 processes on the 4-core machine
 * of configs/multicore.cfg with configs/audit.cfg's periodic audit,
 * at one tenth of the Fig 3 scale. It pays capture, the scheduler,
 * shootdowns and the auditor, which the single-core Fig 3 rows never
 * touch, and runs in both modes with the same identity check.
 *
 * Emits BENCH_simspeed.json as an append-only trajectory: each run
 * APPENDS one entry to the "trajectory" array of an existing report
 * (a legacy single-run report is converted into the first entry), so
 * the committed file accumulates one data point per PR and the trend
 * is diffable in review. Every entry carries a "host" record — CPU
 * brand, compiler, build type, host thread count and the source
 * tree's git commit — since wall times only compare within one host
 * and build.
 *
 * Usage: simspeed [--quick] [--scale S] [--reps N] [--label TEXT]
 *                 [--out FILE]
 *   --quick          tiny datasets (scale 0.02) for CI smoke runs
 *   --scale S        workload scale factor (default 0.1)
 *   --reps N         repetitions per mode, 1 to 1000; min and
 *                    median wall times are reported (default 1)
 *   --label T        free-form tag recorded in the trajectory entry
 *                    (e.g. a PR number or commit subject)
 *   --out FILE       read/append the JSON report here (default
 *                    BENCH_simspeed.json in the working directory)
 *
 * Exit status: 0 on success; 1 on a bad argument, a malformed --out
 * file or a divergence between the modes, printed as
 * "simspeed: <message>".
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "base/logging.hh"
#include "sim/config_parser.hh"
#include "stats/json.hh"
#include "sweep/matrix.hh"
#include "workloads/multiprog.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;

namespace
{

struct ModeResult
{
    double seconds = 0.0;           ///< host seconds, fastest rep
    double medianSeconds = 0.0;     ///< median over the reps
    std::uint64_t accesses = 0;     ///< simulated data accesses
    std::uint64_t simCycles = 0;    ///< total simulated cycles

    double
    accessesPerSec() const
    {
        return seconds > 0 ? static_cast<double>(accesses) / seconds
                           : 0.0;
    }
};

/** Run every job of @p matrix once with the fast path on or off,
 *  timing the whole pass on the host clock. */
ModeResult
runMatrixOnce(const sweep::SweepMatrix &matrix, bool batch)
{
    ModeResult r;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto &job : matrix.jobs) {
        SystemConfig config = job.config;
        config.cpu.batchEnable = batch;
        System sys(config);
        auto workload = makeWorkload(job.workload, job.scale, job.seed);
        workload->setup(sys);
        workload->run(sys);
        r.accesses += sys.cpu().dataAccesses();
        r.simCycles += sys.cpu().now();
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

/** The audited mix's machine: configs/multicore.cfg's 4 cores with
 *  configs/audit.cfg's periodic audit. */
SystemConfig
mixMachine()
{
    ConfigParser parser;
    parser.parseFile(SIMSPEED_SOURCE_DIR "/configs/multicore.cfg");
    parser.parseFile(SIMSPEED_SOURCE_DIR "/configs/audit.cfg");
    return parser.config();
}

/** Build the mix's machine, then capture and replay its 8 processes
 *  under audit, timing the whole run on the host clock. */
ModeResult
runMixOnce(const SystemConfig &machine, double scale, bool batch)
{
    static const std::vector<std::string> programs = {
        "compress95", "vortex", "radix", "em3d",
        "cc1",        "compress95", "vortex", "radix"};
    SystemConfig config = machine;
    config.cpu.batchEnable = batch;
    ModeResult r;
    const auto t0 = std::chrono::steady_clock::now();
    System sys(config);
    runMultiprogMix(sys, programs, scale, 0);
    const auto t1 = std::chrono::steady_clock::now();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    for (unsigned core = 0; core < sys.numCores(); ++core)
        r.accesses += sys.cpu(core).dataAccesses();
    r.simCycles = sys.totalCycles();
    return r;
}

/** Min + median wall time of @p once over @p reps; simulated counts
 *  must repeat exactly across repetitions. */
template <typename RunOnce>
ModeResult
runMode(RunOnce &&once, bool batch, unsigned reps)
{
    ModeResult best;
    std::vector<double> times;
    times.reserve(reps);
    for (unsigned i = 0; i < reps; ++i) {
        ModeResult r = once();
        times.push_back(r.seconds);
        if (i == 0) {
            best = r;
            continue;
        }
        fatalIf(r.simCycles != best.simCycles ||
                    r.accesses != best.accesses,
                "non-deterministic simulation across repetitions (",
                batch ? "batch" : "baseline", " mode)");
        if (r.seconds < best.seconds)
            best.seconds = r.seconds;
    }
    std::sort(times.begin(), times.end());
    best.medianSeconds = times[times.size() / 2];
    return best;
}

json::Value
modeToJson(const ModeResult &r)
{
    json::Value v = json::Value::object();
    v.set("host_seconds", r.seconds);
    v.set("host_seconds_median", r.medianSeconds);
    v.set("sim_accesses", r.accesses);
    v.set("sim_cycles", r.simCycles);
    v.set("accesses_per_host_sec", r.accessesPerSec());
    return v;
}

/**
 * Load the trajectory from an existing report at @p path. Returns an
 * empty array when the file does not exist. A legacy single-run
 * report (top-level "baseline" key, no "trajectory") becomes the
 * first entry so no measurement history is ever dropped.
 */
json::Value
loadTrajectory(const std::string &path)
{
    json::Value traj = json::Value::array();
    std::ifstream is(path);
    if (!is)
        return traj;
    const json::Value prev = json::Value::parse(is);
    if (!prev.isObject())
        return traj;
    if (const json::Value *t = prev.find("trajectory");
        t && t->isArray()) {
        for (const auto &e : t->items())
            traj.push(e);
    } else if (prev.find("baseline")) {
        json::Value legacy = json::Value::object();
        for (const auto &[key, value] : prev.members()) {
            if (key != "bench")
                legacy.set(key, value);
        }
        traj.push(legacy);
    }
    return traj;
}

/** The host CPU's brand string from CPUID, or "unknown". */
std::string
cpuBrand()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        std::array<unsigned, 12> regs{};
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[sizeof(regs) + 1] = {};
        std::memcpy(brand, regs.data(), sizeof(regs));
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        s.erase(s.find_last_not_of(' ') + 1);
        if (!s.empty())
            return s;
    }
#endif
    return "unknown";
}

/** `git describe --always --dirty` of the source tree simspeed was
 *  built from ("-dirty" marks uncommitted changes), or "unknown". */
std::string
gitCommit()
{
    const std::string cmd = "git -C \"" SIMSPEED_SOURCE_DIR
                            "\" describe --always --dirty --abbrev=12 "
                            "2>/dev/null";
    std::string out;
    if (FILE *pipe = popen(cmd.c_str(), "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof(buf), pipe))
            out += buf;
        if (pclose(pipe) != 0)
            out.clear();
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == ' '))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

/** What the wall times were measured on. */
json::Value
hostRecord()
{
    json::Value h = json::Value::object();
    h.set("cpu", cpuBrand());
    h.set("compiler", SIMSPEED_COMPILER);
    h.set("build_type", SIMSPEED_BUILD_TYPE);
    h.set("nproc", std::thread::hardware_concurrency());
    h.set("git_commit", gitCommit());
    return h;
}

void
printModeRow(const char *name, const ModeResult &r)
{
    std::printf("%-14s  %9.3f  %9.3f  %16.0f\n", name, r.seconds,
                r.medianSeconds, r.accessesPerSec());
}

/** The fast path must not change simulated behaviour; catching a
 *  divergence here turns every speed run into a regression test. */
void
checkIdentical(const char *what, const ModeResult &base,
               const ModeResult &batch)
{
    fatalIf(batch.simCycles != base.simCycles ||
                batch.accesses != base.accesses,
            "batch engine changed simulated behaviour on the ", what,
            ": baseline ", base.simCycles, " cycles / ", base.accesses,
            " accesses, batch ", batch.simCycles, " cycles / ",
            batch.accesses, " accesses");
}

/** The most --reps: every rep keeps its wall time, so an unbounded
 *  count could ask for more memory than the host has. */
constexpr unsigned kMaxReps = 1000;

/** The program proper; main() turns its errors into exit status 1. */
int
run(int argc, char **argv)
{
    double scale = 0.1;
    unsigned reps = 1;
    std::string label;
    std::string out = "BENCH_simspeed.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            fatalIf(i + 1 >= argc, "missing value after ", arg);
            return argv[++i];
        };
        if (arg == "--quick")
            scale = 0.02;
        else if (arg == "--scale")
            scale = parseScale(arg, next());
        else if (arg == "--reps")
            reps = static_cast<unsigned>(parseCount(arg, next(), kMaxReps));
        else if (arg == "--label")
            label = next();
        else if (arg == "--out")
            out = next();
        else
            fatal("unknown argument: ", arg);
    }
    fatalIf(reps == 0, "--reps must be at least 1");

    std::printf("=== simspeed: host throughput over the Fig 3 matrix "
                "(scale %.3f, %u rep%s)\n\n", scale, reps,
                reps == 1 ? "" : "s");

    const auto matrix = sweep::fig3Matrix(scale);

    const ModeResult base = runMode(
        [&] { return runMatrixOnce(matrix, false); }, false, reps);
    const ModeResult batch = runMode(
        [&] { return runMatrixOnce(matrix, true); }, true, reps);
    checkIdentical("Fig 3 matrix", base, batch);

    const SystemConfig mix_machine = mixMachine();
    const double mix_scale = scale / 10;
    const ModeResult mix_base = runMode(
        [&] { return runMixOnce(mix_machine, mix_scale, false); }, false,
        reps);
    const ModeResult mix_batch = runMode(
        [&] { return runMixOnce(mix_machine, mix_scale, true); }, true,
        reps);
    checkIdentical("audited mix", mix_base, mix_batch);

    const double batch_speedup =
        batch.seconds > 0 ? base.seconds / batch.seconds : 0.0;

    std::printf("%-14s  %9s  %9s  %16s\n", "mode", "min sec",
                "med sec", "accesses/sec");
    printModeRow("baseline", base);
    printModeRow("batch", batch);
    printModeRow("mix baseline", mix_base);
    printModeRow("mix batch", mix_batch);
    std::printf("\nspeedup: batch %.2fx\n"
                "%llu simulated accesses, %llu simulated cycles, "
                "bit-identical across both modes\n"
                "audited mix (scale %.3f): %llu simulated accesses, %llu "
                "simulated cycles, bit-identical across both modes\n",
                batch_speedup,
                static_cast<unsigned long long>(base.accesses),
                static_cast<unsigned long long>(base.simCycles), mix_scale,
                static_cast<unsigned long long>(mix_base.accesses),
                static_cast<unsigned long long>(mix_base.simCycles));

    json::Value entry = json::Value::object();
    if (!label.empty())
        entry.set("label", label);
    entry.set("host", hostRecord());
    entry.set("matrix", matrix.name);
    entry.set("scale", scale);
    entry.set("reps", reps);
    entry.set("baseline", modeToJson(base));
    entry.set("batch", modeToJson(batch));
    entry.set("batch_speedup", batch_speedup);
    json::Value mix = json::Value::object();
    mix.set("scale", mix_scale);
    mix.set("baseline", modeToJson(mix_base));
    mix.set("batch", modeToJson(mix_batch));
    entry.set("mix", std::move(mix));

    json::Value traj = loadTrajectory(out);
    traj.push(std::move(entry));

    json::Value doc = json::Value::object();
    doc.set("bench", "simspeed");
    doc.set("trajectory", std::move(traj));

    std::ofstream os(out);
    fatalIf(!os, "cannot write ", out);
    doc.dump(os);
    os << "\n";
    std::printf("appended entry %zu to %s\n",
                doc.find("trajectory")->items().size(), out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("simspeed", 1, [&] { return run(argc, argv); });
}
