/**
 * @file
 * Parallel deterministic sweep runner.
 *
 * A sweep fans (workload x machine-configuration) jobs over a thread
 * pool. Every job is hermetic: it constructs its own System, drives
 * its own Workload instance, and derives every random seed from the
 * job itself — never from shared mutable state — so a sweep's results
 * are byte-identical regardless of thread count, schedule, or
 * repetition. Results come back indexed by job position, not by
 * completion order.
 *
 * The figure harnesses (bench/fig3_runtimes, bench/fig4_...) and the
 * tools/sweep CLI all build their job lists from the shared matrices
 * in sweep/matrix.hh, so one definition of each figure's design
 * space serves interactive runs, golden recording, and regression
 * checking alike.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats/json.hh"
#include "workloads/experiment.hh"

namespace mtlbsim::sweep
{

/** One hermetic simulation job. */
struct SweepJob
{
    /** Unique label, e.g. "fig3/em3d/tlb96+mtlb"; doubles as the
     *  golden-file stem (with '/' flattened to '-'). */
    std::string id;
    std::string workload;
    double scale = 1.0;
    SystemConfig config;
    /** 0 keeps the paper's fixed per-workload seeds (the golden
     *  configuration); a nonzero value perturbs the workload trace
     *  and the frame-allocator shuffle deterministically. */
    std::uint64_t seed = 0;
    /** Non-empty makes this a multiprogrammed job: process i runs
     *  processes[i] under runMultiprogMix() on a config.cores-core
     *  machine, and `workload` is just the mix's display name. */
    std::vector<std::string> processes;
};

/** Outcome of one job. */
struct SweepResult
{
    std::string id;
    std::string workload;
    double scale = 1.0;
    std::uint64_t seed = 0;
    /** The multiprogrammed mix, when the job had one. */
    std::vector<std::string> processes;
    bool ok = false;
    /** Failure message when !ok (fatal/panic text). */
    std::string error;
    ExperimentResult metrics;
    /** Full structured stats tree ({"system": ...}); null when
     *  stats capture is off. */
    json::Value stats;
};

struct SweepOptions
{
    /** Worker threads; 0 means hardware concurrency. */
    unsigned jobs = 1;
    /** Capture each job's full stats tree (golden runs need it;
     *  quick figure sweeps can skip the serialization). */
    bool captureStats = true;
};

class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {})
        : options_(options)
    {}

    /** Called after each job completes; @p done counts finished jobs.
     *  Invoked under a lock, in completion (not job) order, so the
     *  calls see @p done run 1, 2, ..., total. */
    using Progress = std::function<void(const SweepResult &,
                                        std::size_t done,
                                        std::size_t total)>;

    /**
     * Run every job; the result vector parallels @p jobs. Job
     * failures are captured in SweepResult::error, never thrown.
     */
    std::vector<SweepResult> run(const std::vector<SweepJob> &jobs,
                                 const Progress &progress = {}) const;

    /** Run a single job in the calling thread. */
    static SweepResult runOne(const SweepJob &job,
                              bool capture_stats = true);

    /** FNV-1a of @p id: a stable per-job seed for sweeps that want
     *  decorrelated (but reproducible) randomness. */
    static std::uint64_t deriveSeed(const std::string &id);

  private:
    SweepOptions options_;
};

/**
 * Serialize one result as the canonical golden-file document:
 * {"meta": {...}, "metrics": {...}, "stats": {...}}.
 */
json::Value resultToJson(const SweepResult &result);

/** Serialize a whole sweep (array of resultToJson in job order). */
json::Value sweepToJson(const std::vector<SweepResult> &results);

} // namespace mtlbsim::sweep
