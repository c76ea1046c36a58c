/**
 * @file
 * The benchmark's workloads and the timed, checked run of one job.
 *
 * Every number here is taken from outside the simulator: host time by
 * timing the public calls a job makes (System construction,
 * Workload::setup/run or runMultiprogMix, System::audit,
 * StatGroup::toJson), simulated counts from the public counters and
 * the stats tree.
 */

#ifndef PERFBENCH_JOBS_HH
#define PERFBENCH_JOBS_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "stats/json.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** One named workload: a machine and the jobs run on it in order. */
struct WorkloadSpec
{
    std::string name;
    std::string machine;    ///< machines/<machine>.cfg
    double scale = 1.0;
    /** Programs run one job each, or together as one multiprogrammed
     *  job when @c mix is set. */
    std::vector<std::string> programs;
    bool mix = false;
    std::string why;

    /** Job names: the programs, or the single job "mix". */
    std::vector<std::string> jobs() const;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloadSpecs();
const WorkloadSpec *findWorkload(const std::string &name);

/**
 * Parse a machine definition. Host-speed keys (cpu.l0_*, cpu.batch_*)
 * are refused, so the benchmark measures the defaults users get. A
 * nonzero @p seed also perturbs the frame-allocator shuffle, as sweep
 * jobs do.
 */
mtlbsim::SystemConfig loadMachine(const std::string &path,
                                  std::uint64_t seed);

/** The simulated results a job must reproduce exactly. */
struct SimCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t accesses = 0;     ///< data accesses, all cores
    std::uint64_t tlbMisses = 0;    ///< unified-TLB misses, all cores
    std::uint64_t cacheMisses = 0;

    bool operator==(const SimCounts &) const = default;
    mtlbsim::json::Value toJson() const;
    static SimCounts fromJson(const mtlbsim::json::Value &v);
};

/** Read @p sys's counts (the batch engine must be flushed, as
 *  System::audit() does). */
SimCounts countsOf(mtlbsim::System &sys);

/** Host seconds of each phase of one job, plus its checked outcome. */
struct JobRun
{
    bool ok = false;
    std::string error;      ///< why the job failed
    SimCounts counts;
    /** Data accesses of the measured phase (Workload::run, or the
     *  whole mix). */
    std::uint64_t measuredAccesses = 0;
    double constructS = 0;  ///< System construction
    double setupS = 0;      ///< Workload::setup (0 for the mix)
    double runS = 0;        ///< the measured phase
    double auditS = 0;      ///< the final System::audit()
    double dumpS = 0;       ///< rootStats().toJson()
    double wallS = 0;       ///< construction through teardown
    mtlbsim::json::Value stats;     ///< the job's stats tree
};

/**
 * Run @p job of @p w once on @p machine: construct, set up, run, audit,
 * dump stats and tear down, timing each phase. A FatalError, a panic
 * or an auditor violation marks the run failed; it never throws.
 */
JobRun runJob(const WorkloadSpec &w, const std::string &job,
              const mtlbsim::SystemConfig &machine, std::uint64_t seed);

/**
 * Why @p r fails the correctness gate, or "" when it passes: it must
 * have run clean, match @p ref exactly when a reference exists, and
 * repeat @p first (the job's first clean repetition) when given.
 */
std::string checkRun(const JobRun &r, const std::optional<SimCounts> &ref,
                     const SimCounts *first);

/** Per-job reference counts, stored per workload with the scale and
 *  seed they hold for. */
class References
{
  public:
    /** Load @p path; a missing file holds no references. */
    explicit References(const std::string &path);

    /** The reference for @p job, if one exists at this scale/seed. */
    std::optional<SimCounts> find(const WorkloadSpec &w, double scale,
                                  std::uint64_t seed,
                                  const std::string &job) const;

    /** Replace @p w's entry with @p counts and write the file. */
    void record(const WorkloadSpec &w, double scale, std::uint64_t seed,
                const std::vector<std::pair<std::string, SimCounts>>
                    &counts);

  private:
    std::string path_;
    mtlbsim::json::Value doc_;
};

/** @name Stats-tree readers (paths are dotted, e.g. "mmc.mtlb.misses") */
/** @{ */
/** One statistic of the system group (0 when absent or null). */
double statOf(const mtlbsim::json::Value &tree, const std::string &path);
/** A per-core statistic summed over core 0 and every core<N> group. */
double statAllCores(const mtlbsim::json::Value &tree,
                    const std::string &path);
/** Every statistic of group @p group whose name starts with
 *  @p prefix, summed (e.g. kernel.shootdowns_core<N>). */
double statPrefixSum(const mtlbsim::json::Value &tree,
                     const std::string &group, const std::string &prefix);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_JOBS_HH
