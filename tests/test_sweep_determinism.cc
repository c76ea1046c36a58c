/**
 * @file
 * Determinism tests for the sweep runner: the same job list must
 * serialize to byte-identical JSON regardless of worker count
 * (--jobs 1/4/8), across repeated runs, and the per-job seeding must
 * depend only on the job itself. These tests are the empirical check
 * on the re-entrancy audit: any global mutable state that leaks
 * between concurrently constructed Systems shows up here as a byte
 * diff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sweep/matrix.hh"
#include "sweep/sweep.hh"

using namespace mtlbsim;
using namespace mtlbsim::sweep;

namespace
{

/** A small mixed matrix: every workload plus MTLB on/off variants,
 *  with both default (0) and derived per-job seeds. */
std::vector<SweepJob>
mixedJobs()
{
    std::vector<SweepJob> jobs;
    for (const auto &workload : allWorkloadNames()) {
        SweepJob job;
        job.id = "det/" + workload;
        job.workload = workload;
        job.scale = 0.02;
        job.config = paperConfig(64, true);
        jobs.push_back(job);
    }
    // No-MTLB variant and explicit per-job seeds on one workload.
    SweepJob base;
    base.id = "det/em3d/no-mtlb";
    base.workload = "em3d";
    base.scale = 0.02;
    base.config = paperConfig(96, false);
    jobs.push_back(base);

    SweepJob seeded = jobs[0];
    seeded.id = "det/compress95/seeded";
    seeded.seed = SweepRunner::deriveSeed(seeded.id);
    jobs.push_back(seeded);
    return jobs;
}

std::string
runSerialized(const std::vector<SweepJob> &jobs, unsigned workers)
{
    SweepOptions options;
    options.jobs = workers;
    options.captureStats = true;
    const auto results = SweepRunner(options).run(jobs);
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    return sweepToJson(results).dumped();
}

} // namespace

TEST(SweepDeterminism, SeedDerivationIsStableAndPerJob)
{
    EXPECT_EQ(SweepRunner::deriveSeed("a/b"),
              SweepRunner::deriveSeed("a/b"));
    EXPECT_NE(SweepRunner::deriveSeed("a/b"),
              SweepRunner::deriveSeed("a/c"));
    EXPECT_NE(SweepRunner::deriveSeed(""), 0u);
}

TEST(SweepDeterminism, ResultsIndexedByJobNotCompletionOrder)
{
    const auto jobs = mixedJobs();
    SweepOptions options;
    options.jobs = 4;
    const auto results = SweepRunner(options).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(results[i].id, jobs[i].id);
}

TEST(SweepDeterminism, ByteIdenticalAcrossWorkerCounts)
{
    const auto jobs = mixedJobs();
    const std::string serial = runSerialized(jobs, 1);
    EXPECT_EQ(runSerialized(jobs, 4), serial);
    EXPECT_EQ(runSerialized(jobs, 8), serial);
}

TEST(SweepDeterminism, ByteIdenticalAcrossRepeatedRuns)
{
    const auto jobs = mixedJobs();
    EXPECT_EQ(runSerialized(jobs, 4), runSerialized(jobs, 4));
}

TEST(SweepDeterminism, SeedChangesTheTrace)
{
    // Sanity check that per-job seeding actually reaches the
    // workload: different seeds must produce different runs.
    SweepJob a;
    a.id = "seed/a";
    a.workload = "radix";
    a.scale = 0.02;
    a.config = paperConfig(64, true);
    a.seed = 1;
    SweepJob b = a;
    b.id = "seed/b";
    b.seed = 2;

    const auto ra = SweepRunner::runOne(a);
    const auto rb = SweepRunner::runOne(b);
    ASSERT_TRUE(ra.ok) << ra.error;
    ASSERT_TRUE(rb.ok) << rb.error;
    EXPECT_NE(ra.metrics.totalCycles, rb.metrics.totalCycles);
}

TEST(SweepDeterminism, FailedJobIsCapturedNotThrown)
{
    SweepJob bad;
    bad.id = "bad/unknown-workload";
    bad.workload = "no-such-benchmark";
    bad.scale = 0.02;
    bad.config = paperConfig(64, true);

    const auto results = SweepRunner(SweepOptions{}).run({bad});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("unknown workload"),
              std::string::npos);
}

TEST(SweepDeterminism, ProgressReportsEachJobOnce)
{
    // The callback takes no lock of its own: the runner serialises
    // the calls, so plain vectors are safe to fill from it.
    const auto jobs = mixedJobs();
    std::vector<std::string> ids;
    std::vector<std::size_t> finished;
    SweepOptions options;
    options.jobs = 4;
    options.captureStats = false;
    SweepRunner(options).run(
        jobs, [&](const SweepResult &r, std::size_t done,
                  std::size_t total) {
            EXPECT_EQ(total, jobs.size());
            ids.push_back(r.id);
            finished.push_back(done);
        });

    ASSERT_EQ(finished.size(), jobs.size());
    for (std::size_t i = 0; i < finished.size(); ++i)
        EXPECT_EQ(finished[i], i + 1);
    std::vector<std::string> want;
    for (const auto &job : jobs)
        want.push_back(job.id);
    std::sort(ids.begin(), ids.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(ids, want);
}
