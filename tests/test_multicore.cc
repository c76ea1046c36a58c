/**
 * @file
 * Multi-core machine-model tests: single-core equivalence of the
 * multiprogramming replay path, shootdown semantics at each of the
 * six kernel mutation sites, scheduler determinism across sweep
 * worker counts, and audited end-to-end multiprogrammed runs.
 *
 * The single-core byte-identity against the committed pre-refactor
 * baselines is enforced separately by tests/test_golden_stats.cc;
 * here the equivalence harness proves the capture/replay
 * multiprogramming path is indistinguishable from driving the
 * workload directly when there is nothing to schedule.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/translation_auditor.hh"
#include "equivalence.hh"
#include "sim/system.hh"
#include "sweep/matrix.hh"
#include "sweep/sweep.hh"
#include "workloads/multiprog.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;
using namespace mtlbsim::testeq;

namespace
{

SystemConfig
multicoreConfig(unsigned cores)
{
    SystemConfig c;
    c.installedBytes = 64 * MB;
    c.mtlbEnabled = true;
    c.cores = cores;
    return c;
}

void
addData(System &sys, Addr size = 16 * MB)
{
    sys.kernel().addressSpace().addRegion("data", dataBase, size, {});
}

/** Touch @p addr from @p core so its private TLB holds the entry. */
void
warmCore(System &sys, unsigned core, Addr addr)
{
    sys.cpu(core).load(addr);
    ASSERT_TRUE(sys.tlb(core).probe(addr).has_value());
}

} // namespace

// --- Single-core equivalence -------------------------------------

TEST(MulticoreEquivalence, OneCoreOneProcessReplayIsByteIdentical)
{
    // A 1-core machine replaying a 1-process "mix" must be
    // indistinguishable — cycles, stats text, stats JSON — from the
    // same machine driving the workload directly. Capture only
    // records ops, so this is also the proof that the recorded
    // stream is the one the workload issues.
    const SystemConfig config = multicoreConfig(1);

    for (const std::string &name : allWorkloadNames()) {
        const auto direct =
            testeq::runConfigured(config, [&name](System &s) {
                auto w = makeWorkload(name, 0.02, 0);
                w->setup(s);
                w->run(s);
            });
        const auto replay =
            testeq::runConfigured(config, [&name](System &s) {
                runMultiprogMix(s, {name}, 0.02, 0);
            });
        testeq::expectIdentical(direct, replay, name + " 1x1 replay");
    }
}

TEST(MulticoreEquivalence, SharedImagesReplayLikeSeparateCopies)
{
    // runMultiprogMix replays one image per distinct program; giving
    // every process its own captured copy must not change a thing.
    SystemConfig config = multicoreConfig(2);
    config.sched.quantum = 200'000;
    const std::vector<std::string> mix{"em3d", "compress95", "em3d",
                                       "compress95"};

    const auto shared = testeq::runConfigured(config, [&mix](System &s) {
        runMultiprogMix(s, mix, 0.02, 0);
    });
    const auto copies = testeq::runConfigured(config, [&mix](System &s) {
        std::vector<ProgramImage> programs;
        for (const std::string &name : mix)
            programs.push_back(captureProgram(name, 0.02, 0, s.config()));
        runPrograms(s, programs);
    });
    testeq::expectIdentical(shared, copies, "shared vs copied images");
}

// --- Record-only capture -------------------------------------------

static_assert(sizeof(CpuOpRecord) == 12,
              "a captured op is a 1-byte kind and two 32-bit operands");

TEST(Capture, SinkRecordsOpsWithoutSimulatingThem)
{
    auto heap_machine = [] {
        auto sys = std::make_unique<System>(multicoreConfig(1));
        addData(*sys);
        sys->kernel().initHeap(UserLayout::heapBase, 16 * MB);
        return sys;
    };
    auto plain = heap_machine();
    auto recording = heap_machine();
    std::vector<CpuOpRecord> ops;
    Cpu &cpu = recording->cpu();
    cpu.setRecorder(&ops);

    cpu.load(dataBase);
    cpu.store(dataBase + 64);
    cpu.execute(10);
    cpu.executeAt(5, dataBase + 128);
    EXPECT_EQ(cpu.dataAccesses(), 0u);
    EXPECT_EQ(recording->cache().accesses(), 0u);
    EXPECT_EQ(cpu.now(), 0u);

    // Kernel services still run, so the program sees its real break.
    for (const Addr bytes : {Addr{4096}, Addr{100}, 3 * MB})
        EXPECT_EQ(cpu.sbrk(bytes), plain->cpu().sbrk(bytes));

    using Kind = CpuOpRecord::Kind;
    ASSERT_EQ(ops.size(), 7u);
    EXPECT_EQ(ops[0].kind, Kind::Load);
    EXPECT_EQ(ops[0].a, dataBase);
    EXPECT_EQ(ops[1].kind, Kind::Store);
    EXPECT_EQ(ops[1].a, dataBase + 64);
    EXPECT_EQ(ops[2].kind, Kind::Execute);
    EXPECT_EQ(ops[2].n, 10u);
    EXPECT_EQ(ops[3].kind, Kind::ExecuteAt);
    EXPECT_EQ(ops[3].a, dataBase + 128);
    EXPECT_EQ(ops[3].n, 5u);
    EXPECT_EQ(ops[6].kind, Kind::Sbrk);
    EXPECT_EQ(ops[6].n, 3 * MB);
}

TEST(Capture, OperandWiderThan32BitsIsFatal)
{
    System sys(multicoreConfig(1));
    std::vector<CpuOpRecord> ops;
    sys.cpu().setRecorder(&ops);
    EXPECT_THROW(sys.cpu().load(Addr{1} << 32), FatalError);
    EXPECT_THROW(sys.cpu().execute(Counter{1} << 32), FatalError);
    EXPECT_TRUE(ops.empty());
}

TEST(MulticoreEquivalence, SingleCoreConfigHasNoPerCoreGroups)
{
    // cores=1 must keep the exact legacy stats layout: no core<N>
    // groups, no mtlb_port group, no shootdown counters.
    System sys(multicoreConfig(1));
    const std::string json = sys.rootStats().toJson().dumped();
    EXPECT_EQ(json.find("core1"), std::string::npos);
    EXPECT_EQ(json.find("mtlb_port"), std::string::npos);
    EXPECT_EQ(json.find("shootdowns"), std::string::npos);
}

// --- Shootdown unit tests: the six kernel mutation sites ----------

TEST(Shootdown, RemapPurgesRemoteTlbAndChargesIpi)
{
    System sys(multicoreConfig(2));
    addData(sys);
    warmCore(sys, 1, dataBase);

    const auto epoch = sys.tlb(1).translationEpoch();
    const auto received = sys.kernel().shootdownsReceived(1);
    const Cycles remote_now = sys.cpu(1).now();

    sys.cpu(0).remap(dataBase, 64 * 1024);

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 1);
    // The initiating core services no IPI of its own.
    EXPECT_EQ(sys.kernel().shootdownsReceived(0), 0u);
    // Ranged shootdown: the remote entry is gone, and the epoch bump
    // retires the remote page memo.
    EXPECT_FALSE(sys.tlb(1).probe(dataBase).has_value());
    EXPECT_NE(sys.tlb(1).translationEpoch(), epoch);
    // The remote CPU paid the IPI service latency.
    EXPECT_EQ(sys.cpu(1).now(), remote_now + 300);
}

TEST(Shootdown, MapPageToShadowPurgesRemoteTlb)
{
    System sys(multicoreConfig(2));
    addData(sys);
    sys.cpu(0).load(dataBase);      // materialize, real mapping
    warmCore(sys, 1, dataBase);

    const auto epoch = sys.tlb(1).translationEpoch();
    const auto received = sys.kernel().shootdownsReceived(1);

    // First recolor of a real-mapped page runs mapPageToShadow only.
    const unsigned color = sys.kernel().colorOf(dataBase);
    sys.cpu(0).recolorPage(dataBase, (color + 1) % 128);

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 1);
    EXPECT_FALSE(sys.tlb(1).probe(dataBase).has_value());
    EXPECT_NE(sys.tlb(1).translationEpoch(), epoch);
}

TEST(Shootdown, DemoteSingleShadowPageShootsDownTwice)
{
    System sys(multicoreConfig(2));
    addData(sys);
    sys.cpu(0).load(dataBase);
    const unsigned color = sys.kernel().colorOf(dataBase);
    sys.cpu(0).recolorPage(dataBase, (color + 1) % 128);
    warmCore(sys, 1, dataBase);

    const auto received = sys.kernel().shootdownsReceived(1);

    // Recoloring an already-shadow page demotes the old single-page
    // mapping and installs a new one: two mutations, two IPIs.
    sys.cpu(0).recolorPage(dataBase, (color + 2) % 128);

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 2);
    EXPECT_FALSE(sys.tlb(1).probe(dataBase).has_value());
}

TEST(Shootdown, PagewiseSwapOutSendsEpochOnlyShootdown)
{
    System sys(multicoreConfig(2));
    addData(sys);
    sys.cpu(0).remap(dataBase, 16 * 1024);
    sys.cpu(0).load(dataBase);
    warmCore(sys, 1, dataBase);

    const auto epoch = sys.tlb(1).translationEpoch();
    const auto received = sys.kernel().shootdownsReceived(1);

    sys.kernel().setActiveCore(0);
    sys.kernel().swapOutSuperpagePagewise(dataBase, sys.cpu(0).now());

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 1);
    // Epoch-only: the superpage TLB entry deliberately survives
    // (§2.5 — the MMC faults on access to a swapped base page), but
    // the remote page memo must die because the freed frames may be
    // reused.
    EXPECT_TRUE(sys.tlb(1).probe(dataBase).has_value());
    EXPECT_NE(sys.tlb(1).translationEpoch(), epoch);
}

TEST(Shootdown, WholeSwapOutSendsEpochOnlyShootdown)
{
    System sys(multicoreConfig(2));
    addData(sys);
    sys.cpu(0).remap(dataBase, 16 * 1024);
    sys.cpu(0).load(dataBase);
    warmCore(sys, 1, dataBase);

    const auto epoch = sys.tlb(1).translationEpoch();
    const auto received = sys.kernel().shootdownsReceived(1);

    sys.kernel().setActiveCore(0);
    sys.kernel().swapOutSuperpageWhole(dataBase, sys.cpu(0).now());

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 1);
    EXPECT_TRUE(sys.tlb(1).probe(dataBase).has_value());
    EXPECT_NE(sys.tlb(1).translationEpoch(), epoch);
}

TEST(Shootdown, ShadowFaultSwapInShootsDownFrameReuse)
{
    System sys(multicoreConfig(2));
    addData(sys);
    sys.cpu(0).remap(dataBase, 16 * 1024);
    sys.cpu(0).load(dataBase);
    sys.kernel().setActiveCore(0);
    sys.kernel().swapOutSuperpagePagewise(dataBase, sys.cpu(0).now());

    const auto epoch = sys.tlb(1).translationEpoch();
    const auto received = sys.kernel().shootdownsReceived(1);

    // The access faults at the MMC and swaps the page back in under
    // an unchanged CPU-visible translation: epoch-only shootdown.
    sys.cpu(0).load(dataBase);
    EXPECT_TRUE(sys.kernel().addressSpace().isPagePresent(dataBase));

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 1);
    EXPECT_NE(sys.tlb(1).translationEpoch(), epoch);
}

TEST(Shootdown, SuppressedShootdownTripsCrossCoreInvariant)
{
    // The planted-fault path the fuzzer uses: swallowing one
    // broadcast leaves core 1 provably stale, and the auditor's
    // cross-core-coherence invariant must say so.
    System sys(multicoreConfig(2));
    addData(sys);
    warmCore(sys, 1, dataBase);

    sys.kernel().suppressNextShootdown();
    sys.cpu(0).remap(dataBase, 64 * 1024);

    ASSERT_TRUE(sys.tlb(1).probe(dataBase).has_value());
    const auto report = sys.auditor().collect();
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.has("cross-core-coherence"));
}

TEST(Shootdown, CleanBroadcastKeepsAuditorQuiet)
{
    System sys(multicoreConfig(2));
    addData(sys);
    warmCore(sys, 1, dataBase);
    sys.cpu(0).remap(dataBase, 64 * 1024);
    sys.cpu(1).load(dataBase);      // refill after the shootdown

    const auto report = sys.auditor().collect();
    EXPECT_TRUE(report.clean());
}

// --- Scheduler ----------------------------------------------------

TEST(Scheduler, MixCompletesAllProgramsOnFewerCores)
{
    System sys(multicoreConfig(2));
    const Cycles total = runMultiprogMix(
        sys, {"compress95", "compress95", "compress95", "compress95"},
        0.02, 0);
    EXPECT_GT(total, 0u);
    EXPECT_EQ(sys.kernel().numProcesses(), 4u);
    // Both cores did real work.
    EXPECT_GT(sys.cpu(0).now(), 0u);
    EXPECT_GT(sys.cpu(1).now(), 0u);
}

TEST(Scheduler, QuantumZeroRunsToCompletion)
{
    SystemConfig config = multicoreConfig(1);
    config.sched.quantum = 0;
    System sys(config);
    const Cycles total =
        runMultiprogMix(sys, {"compress95", "compress95"}, 0.02, 0);
    EXPECT_GT(total, 0u);
    EXPECT_EQ(sys.kernel().numProcesses(), 2u);
}

TEST(Scheduler, DeterministicAcrossSweepWorkerCounts)
{
    // The multiprogrammed sweep job must serialize byte-identically
    // with --jobs 1/4/8: the mix's interleaving is a function of the
    // job alone, never of the host's thread schedule.
    std::vector<sweep::SweepJob> jobs;
    for (int v = 0; v < 4; ++v) {
        sweep::SweepJob job;
        job.id = "mix/det" + std::to_string(v);
        job.workload = "mix";
        job.scale = 0.02;
        job.config = multicoreConfig(2);
        job.config.sched.quantum = 500'000 + 100'000 * v;
        job.processes = {"compress95", "em3d", "vortex", "em3d"};
        jobs.push_back(std::move(job));
    }

    auto serialized = [&jobs](unsigned workers) {
        sweep::SweepOptions options;
        options.jobs = workers;
        const auto results = sweep::SweepRunner(options).run(jobs);
        for (const auto &r : results)
            EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
        return sweep::sweepToJson(results).dumped();
    };

    const std::string serial = serialized(1);
    EXPECT_EQ(serialized(4), serial);
    EXPECT_EQ(serialized(8), serial);
}

// --- Audited end-to-end runs --------------------------------------

TEST(MulticoreEndToEnd, TwoCoreFourProcessEm3dAuditsClean)
{
    SystemConfig config = multicoreConfig(2);
    config.check.enabled = true;
    config.check.interval = 2'000'000;  // periodic + final audit

    System sys(config);
    const Cycles total = runMultiprogMix(
        sys, {"em3d", "em3d", "em3d", "em3d"}, 0.02, 0);
    sys.audit();                        // panics on any violation

    EXPECT_GT(total, 0u);
    EXPECT_GT(sys.auditor().auditsRun(), 0u);
    EXPECT_EQ(sys.auditor().violationsFound(), 0u);
    EXPECT_GT(sys.kernel().shootdownsReceived(0), 0u);
    EXPECT_GT(sys.kernel().shootdownsReceived(1), 0u);
}

TEST(MulticoreEndToEnd, FourCoreSixteenProcessMixAuditsClean)
{
    // The acceptance mix: 4 cores x 16 processes of
    // compress/vortex/em3d with periodic audits on, completing with
    // zero violations and shootdown traffic on every core.
    SystemConfig config = multicoreConfig(4);
    config.check.enabled = true;
    config.check.interval = 2'000'000;

    std::vector<std::string> names;
    const std::vector<std::string> rotation{"compress95", "vortex",
                                            "em3d"};
    for (unsigned p = 0; p < 16; ++p)
        names.push_back(rotation[p % rotation.size()]);

    System sys(config);
    const Cycles total = runMultiprogMix(sys, names, 0.02, 0);
    sys.audit();

    EXPECT_GT(total, 0u);
    EXPECT_EQ(sys.kernel().numProcesses(), 16u);
    EXPECT_EQ(sys.auditor().violationsFound(), 0u);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_GT(sys.kernel().shootdownsReceived(c), 0u)
            << "core " << c << " serviced no shootdown IPIs";
    }
}
