/**
 * @file
 * Parallel deterministic sweep runner.
 *
 * A sweep fans (workload x machine-configuration) jobs over a thread
 * pool. Every job is hermetic: it constructs its own System, drives
 * its own Workload instance (or scenario), and derives every random
 * seed from the job itself — never from shared mutable state — so a
 * sweep's results are byte-identical regardless of thread count,
 * schedule, or repetition. Results come back indexed by job position,
 * not by completion order.
 *
 * Every paper experiment is a matrix in sweep/matrix.hh, run by
 * tools/sweep, so one definition of each experiment's design space
 * serves interactive runs, golden recording, and regression checking
 * alike.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.hh"
#include "stats/json.hh"

namespace mtlbsim::sweep
{

/** The paper's headline metrics, read from a driven System. */
struct ExperimentResult
{
    std::string workload;
    unsigned tlbEntries = 0;
    bool mtlbEnabled = false;
    unsigned mtlbEntries = 0;
    unsigned mtlbAssoc = 0;

    Cycles totalCycles = 0;
    Cycles tlbMissCycles = 0;       ///< Fig 3's shaded fraction
    double tlbMissFraction = 0.0;
    double avgFillCycles = 0.0;     ///< Fig 4(B)'s metric
    double mtlbHitRate = 0.0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t cacheMisses = 0;
    double cacheHitRate = 0.0;

    Cycles remapTotalCycles = 0;    ///< §3.3 breakdown
    Cycles remapFlushCycles = 0;
    std::uint64_t remapPages = 0;
    std::size_t superpages = 0;
};

/** Named values a scenario reports, in the order it reports them. */
using ScenarioValues = std::vector<std::pair<std::string, double>>;

/** Drives a job's System in place of a workload; throwing fails the
 *  job. */
using Scenario = std::function<ScenarioValues(System &)>;

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
    /** Set makes this a scenario job: it drives the System instead
     *  of a workload, and `workload` is the scenario's name. */
    Scenario scenario;
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
    /** What the job's scenario reported, when it had one. */
    ScenarioValues values;
    /** Full structured stats tree ({"system": ...}). */
    json::Value stats;

    /** The scenario value named @p name; fatal when absent. */
    double value(const std::string &name) const;
};

struct SweepOptions
{
    /** Worker threads; 0 means hardware concurrency. */
    unsigned jobs = 1;
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
    static SweepResult runOne(const SweepJob &job);

    /** FNV-1a of @p id: a stable per-job seed for sweeps that want
     *  decorrelated (but reproducible) randomness. */
    static std::uint64_t deriveSeed(const std::string &id);

  private:
    SweepOptions options_;
};

/**
 * Serialize one result as the canonical golden-file document:
 * {"meta": {...}, "metrics": {...}, "stats": {...}}, with a
 * "values" object before "stats" for a scenario job.
 */
json::Value resultToJson(const SweepResult &result);

/** Serialize a whole sweep (array of resultToJson in job order). */
json::Value sweepToJson(const std::vector<SweepResult> &results);

} // namespace mtlbsim::sweep
