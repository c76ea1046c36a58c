#include "sweep/sweep.hh"

#include <atomic>
#include <mutex>
#include <thread>

#include "base/logging.hh"
#include "sim/system.hh"
#include "workloads/multiprog.hh"
#include "workloads/workload.hh"

namespace mtlbsim::sweep
{

std::uint64_t
SweepRunner::deriveSeed(const std::string &id)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : id) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    // makeWorkload treats 0 as "use the paper seed"; remap it.
    return hash ? hash : 0xcbf29ce484222325ULL;
}

SweepResult
SweepRunner::runOne(const SweepJob &job, bool capture_stats)
{
    SweepResult result;
    result.id = job.id;
    result.workload = job.workload;
    result.scale = job.scale;
    result.seed = job.seed;
    result.processes = job.processes;
    try {
        SystemConfig config = job.config;
        if (job.seed)
            config.kernel.frameSeed = job.seed ^ 0x9e3779b97f4a7c15ULL;

        System sys(config);
        if (job.processes.empty()) {
            auto workload =
                makeWorkload(job.workload, job.scale, job.seed);
            workload->setup(sys);
            workload->run(sys);
        } else {
            runMultiprogMix(sys, job.processes, job.scale, job.seed);
        }
        if (config.check.enabled)
            sys.audit();

        result.metrics = collectMetrics(sys, job.workload);
        if (capture_stats) {
            auto stats = json::Value::object();
            stats.set(sys.rootStats().name(), sys.rootStats().toJson());
            result.stats = std::move(stats);
        }
        result.ok = true;
    } catch (const std::exception &e) {
        result.ok = false;
        result.error = e.what();
    }
    return result;
}

namespace
{

/**
 * The caller's progress callback behind the one lock the workers
 * share. report() is the only way to reach the callback, so no worker
 * can call it, or count a finished job, without holding the lock.
 */
class ProgressReporter
{
  public:
    explicit ProgressReporter(const SweepRunner::Progress &progress)
        : progress_(progress)
    {}

    void
    report(const SweepResult &result, std::size_t total)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++finished_;
        if (progress_)
            progress_(result, finished_, total);
    }

  private:
    std::mutex mutex_;
    const SweepRunner::Progress &progress_;
    std::size_t finished_ = 0;
};

/** One worker: claim jobs off @p next until none are left. */
void
work(const std::vector<SweepJob> &jobs, std::vector<SweepResult> &results,
     bool capture_stats, std::atomic<std::size_t> &next,
     ProgressReporter &reporter)
{
    for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= jobs.size())
            return;
        results[i] = SweepRunner::runOne(jobs[i], capture_stats);
        reporter.report(results[i], jobs.size());
    }
}

} // namespace

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepJob> &jobs,
                 const Progress &progress) const
{
    std::vector<SweepResult> results(jobs.size());
    if (jobs.empty())
        return results;

    unsigned workers = options_.jobs;
    if (workers == 0)
        workers = std::max(1u, std::thread::hardware_concurrency());
    workers = static_cast<unsigned>(
        std::min<std::size_t>(workers, jobs.size()));

    std::atomic<std::size_t> next{0};
    ProgressReporter reporter(progress);
    const bool capture = options_.captureStats;
    auto worker = [&jobs, &results, capture, &next, &reporter] {
        work(jobs, results, capture, next, reporter);
    };

    if (workers == 1) {
        worker();
        return results;
    }

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return results;
}

json::Value
resultToJson(const SweepResult &result)
{
    auto doc = json::Value::object();

    auto meta = json::Value::object();
    meta.set("id", result.id);
    meta.set("workload", result.workload);
    meta.set("scale", result.scale);
    meta.set("seed", result.seed);
    if (!result.processes.empty()) {
        // Multiprogrammed job: record the mix. Absent for classic
        // jobs so pre-multicore golden files stay byte-identical.
        auto procs = json::Value::array();
        for (const auto &p : result.processes)
            procs.push(p);
        meta.set("processes", std::move(procs));
    }
    meta.set("ok", result.ok);
    if (!result.ok)
        meta.set("error", result.error);
    doc.set("meta", std::move(meta));

    const ExperimentResult &m = result.metrics;
    auto metrics = json::Value::object();
    metrics.set("tlb_entries", m.tlbEntries);
    metrics.set("mtlb_enabled", m.mtlbEnabled);
    metrics.set("mtlb_entries", m.mtlbEntries);
    metrics.set("mtlb_assoc", m.mtlbAssoc);
    metrics.set("total_cycles", m.totalCycles);
    metrics.set("tlb_miss_cycles", m.tlbMissCycles);
    metrics.set("tlb_miss_fraction", m.tlbMissFraction);
    metrics.set("avg_fill_cycles", m.avgFillCycles);
    metrics.set("mtlb_hit_rate", m.mtlbHitRate);
    metrics.set("tlb_misses", m.tlbMisses);
    metrics.set("cache_misses", m.cacheMisses);
    metrics.set("cache_hit_rate", m.cacheHitRate);
    metrics.set("remap_total_cycles", m.remapTotalCycles);
    metrics.set("remap_flush_cycles", m.remapFlushCycles);
    metrics.set("remap_pages", m.remapPages);
    metrics.set("superpages", m.superpages);
    doc.set("metrics", std::move(metrics));

    doc.set("stats", result.stats);
    return doc;
}

json::Value
sweepToJson(const std::vector<SweepResult> &results)
{
    auto arr = json::Value::array();
    for (const auto &r : results)
        arr.push(resultToJson(r));
    return arr;
}

} // namespace mtlbsim::sweep
