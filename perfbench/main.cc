/**
 * @file
 * Host-speed benchmark of the simulator: one workload per invocation.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--bench-dir DIR] [--refs FILE] [--record-refs]
 *             [--scale X] [--commit TEXT]
 *
 * --trace 0 repeats the workload's job list until S seconds have
 * passed and prints the end-to-end metrics: accesses_per_s, wall_s,
 * setup_s and peak_rss_mb (see runEndToEnd for how repetitions are
 * reduced to one figure).
 * --trace 1 runs the traced pass instead (layers.hh) and prints the
 * per-layer metrics. Either way every job is checked (jobs.hh) and the
 * last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Seed 0 keeps the paper's workload seeds, for which --refs holds the
 * per-job reference counts; any other seed runs only the audit and
 * repeat checks. --record-refs writes the counts observed into --refs.
 * --scale overrides the workload's scale (references then apply only
 * if recorded at that scale).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "base/logging.hh"
#include "jobs.hh"
#include "layers.hh"

using namespace mtlbsim;
using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string benchDir = "perfbench";
    std::string refs;
    bool recordRefs = false;
    double scale = 0;       ///< 0 = the workload's own
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--bench-dir DIR] [--refs FILE] "
                 "[--record-refs] [--scale X] [--commit TEXT]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value after " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = next();
        else if (arg == "--seed")
            o.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(next().c_str());
        else if (arg == "--trace")
            o.trace = next() != "0";
        else if (arg == "--bench-dir")
            o.benchDir = next();
        else if (arg == "--refs")
            o.refs = next();
        else if (arg == "--record-refs")
            o.recordRefs = true;
        else if (arg == "--scale")
            o.scale = std::atof(next().c_str());
        else if (arg == "--commit")
            o.commit = next();
        else
            usage("unknown argument " + arg);
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.refs.empty())
        o.refs = o.benchDir + "/references.json";
    return o;
}

/** The host CPU's brand string, from CPUID (no file is read). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[sizeof(regs) + 1] = {};
        std::memcpy(brand, regs, sizeof(regs));
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        s.erase(s.find_last_not_of(' ') + 1);
        return s;
    }
#endif
    return "unknown";
}

json::Value
hostRecord(const Options &o)
{
    json::Value h = json::Value::object();
    h.set("cpu", cpuModel());
    h.set("compiler", PERFBENCH_COMPILER);
    h.set("build_type", PERFBENCH_BUILD_TYPE);
    h.set("nproc", std::thread::hardware_concurrency());
    h.set("git_commit", o.commit);
    h.set("seed", o.seed);
    return h;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Repetitions the end-to-end run makes however short --seconds is,
 *  so every job is seen to repeat its counts. */
constexpr unsigned minReps = 3;

/**
 * The end-to-end run: run the job list over and over until @p o.seconds
 * pass, each repetition starting one job later than the last, so each
 * job's samples spread over the whole run. Each job's wall, set-up and
 * run time is its fastest repetition. On a shared host a job mostly
 * runs slowed down by other tenants, by a share that changes from minute
 * to minute, while in quiet spells of a second or more it runs at the
 * host's own speed: a job short enough to repeat within such a spell
 * reads that speed as its minimum. Job figures are summed over the job
 * list.
 */
std::vector<Metric>
runEndToEnd(const WorkloadSpec &w, const SystemConfig &machine,
            const Options &o, References &refs, unsigned &attempted,
            unsigned &failed)
{
    const std::vector<std::string> jobs = w.jobs();
    std::vector<std::vector<JobRun>> runs(jobs.size());
    std::vector<std::optional<SimCounts>> first(jobs.size());

    const auto start = Clock::now();
    unsigned reps = 0;
    while (reps < minReps ||
           secondsBetween(start, Clock::now()) < o.seconds) {
        double rep_wall = 0;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            const std::size_t j = (reps + k) % jobs.size();
            JobRun r = runJob(w, jobs[j], machine, o.seed);
            ++attempted;
            const std::string why =
                checkRun(r, refs.find(w, w.scale, o.seed, jobs[j]),
                         first[j] ? &*first[j] : nullptr);
            if (!why.empty()) {
                ++failed;
                std::printf("FAILED %s (repetition %u): %s\n",
                            jobs[j].c_str(), reps + 1, why.c_str());
            } else if (!first[j]) {
                first[j] = r.counts;
            }
            rep_wall += r.wallS;
            if (!r.ok)
                continue;   // its phase times are not a whole job's
            r.stats = json::Value();
            runs[j].push_back(std::move(r));
        }
        ++reps;
        std::printf("repetition %u: wall %.4f s\n", reps, rep_wall);
    }

    std::printf("\n%-12s %5s %10s %10s %10s %10s %14s %12s\n", "job",
                "reps", "wall min", "wall med", "setup min", "run min",
                "accesses/s", "sim cycles");
    double wall = 0, setup = 0, run = 0;
    std::uint64_t accesses = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (runs[j].empty()) {
            std::printf("%-12s no clean run\n", jobs[j].c_str());
            continue;
        }
        std::vector<double> walls, setups, times;
        for (const JobRun &r : runs[j]) {
            walls.push_back(r.wallS);
            setups.push_back(r.constructS + r.setupS);
            times.push_back(r.runS);
        }
        const double job_wall = *std::min_element(walls.begin(), walls.end());
        const double job_setup =
            *std::min_element(setups.begin(), setups.end());
        const double job_run = *std::min_element(times.begin(), times.end());
        const std::uint64_t job_accesses = runs[j].front().measuredAccesses;
        std::printf("%-12s %5zu %10.4f %10.4f %10.4f %10.4f %14.0f %12llu\n",
                    jobs[j].c_str(), runs[j].size(),
                    job_wall, median(walls), job_setup, job_run,
                    job_accesses / job_run,
                    static_cast<unsigned long long>(
                        runs[j].front().counts.cycles));
        wall += job_wall;
        setup += job_setup;
        run += job_run;
        accesses += job_accesses;
    }

    if (o.recordRefs) {
        std::vector<std::pair<std::string, SimCounts>> counts;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (!first[j])
                fatal("cannot record references: ", jobs[j], " failed");
            counts.emplace_back(jobs[j], *first[j]);
        }
        refs.record(w, w.scale, o.seed, counts);
        std::printf("recorded reference counts in %s\n", o.refs.c_str());
    }

    return {
        {"accesses_per_s", run > 0 ? static_cast<double>(accesses) / run : 0.0,
         "1/s"},
        {"wall_s", wall, "s"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

int
runMain(const Options &o)
{
    const WorkloadSpec *spec = findWorkload(o.workload);
    if (!spec) {
        std::string names;
        for (const auto &w : workloadSpecs())
            names += " " + w.name;
        usage("unknown workload '" + o.workload + "'; expected one of" +
              names);
    }
    WorkloadSpec w = *spec;
    if (o.scale > 0)
        w.scale = o.scale;
    const SystemConfig machine = loadMachine(
        o.benchDir + "/machines/" + w.machine + ".cfg", o.seed);
    References refs(o.refs);

    std::printf("perfbench %s: %s\n", w.name.c_str(), w.why.c_str());
    std::printf("machine machines/%s.cfg, scale %g, %zu job%s, %s run\n",
                w.machine.c_str(), w.scale, w.jobs().size(),
                w.jobs().size() == 1 ? "" : "s",
                o.trace ? "traced" : "end-to-end");
    std::printf("host %s\n", hostRecord(o).dumped(0).c_str());
    bool all_refs = true;
    for (const std::string &job : w.jobs())
        all_refs = all_refs && refs.find(w, w.scale, o.seed, job);
    if (all_refs) {
        std::printf("reference: every job must match %s exactly\n",
                    o.refs.c_str());
    } else {
        std::printf("reference: none exists for seed %llu at scale %g; "
                    "only the audit and repeat checks apply\n",
                    static_cast<unsigned long long>(o.seed), w.scale);
    }

    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<Metric> metrics;
    if (o.trace) {
        const TracedRun t = runTraced(w, machine, o.seed, refs);
        metrics = t.metrics;
        attempted = t.attempted;
        failed = t.failed;
    } else {
        metrics = runEndToEnd(w, machine, o, refs, attempted, failed);
    }

    std::printf("\n");
    json::Value values = json::Value::object();
    for (const Metric &m : metrics) {
        std::printf("%-26s %18.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        json::Value v = json::Value::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        values.set(m.name, std::move(v));
    }
    std::printf("%-26s %18.6g (%u of %u job runs failed)\n", "failed_frac",
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                failed, attempted);

    json::Value result = json::Value::object();
    result.set("correct", failed == 0 && attempted > 0);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", std::move(values));
    std::printf("%s\n", result.dumped(0).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    setInformEnabled(false);
    try {
        return runMain(o);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
    } catch (const PanicError &e) {
        std::fprintf(stderr, "perfbench: panic: %s\n", e.what());
    }
    return 1;
}
