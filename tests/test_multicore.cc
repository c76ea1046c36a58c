/**
 * @file
 * Multi-core machine-model tests: single-core equivalence of the
 * multiprogramming path, streamed mixes against captured images,
 * generator failures, shootdown semantics at each of the six kernel
 * mutation sites, scheduler determinism across sweep worker counts,
 * and audited end-to-end multiprogrammed runs.
 *
 * The single-core byte-identity against the committed pre-refactor
 * baselines is enforced separately by tests/test_golden_stats.cc;
 * here the equivalence harness proves the streamed multiprogramming
 * path is indistinguishable from driving the workload directly when
 * there is nothing to schedule.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
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

/** A record sink that keeps every op: each time the ring fills, its
 *  ops move to `kept`. */
class KeepingRing : public OpRing
{
  public:
    using OpRing::OpRing;

    std::vector<CpuOpRecord> kept;
    unsigned handoffs = 0;

  protected:
    void
    full() override
    {
        ++handoffs;
        kept.insert(kept.end(), data(), data() + size());
        clear();
    }
};

/** A workload of its own: one data region, then @p ops loads, keeping
 *  every address in a host vector, so that a generator whose frames
 *  were never unwound leaks it (LeakSanitizer). At op @p at it can
 *  fail or declare a second region. */
class LoopWorkload : public Workload
{
  public:
    enum class Fault
    {
        None,
        Throw,
        LateRegion
    };

    explicit LoopWorkload(std::uint64_t ops, Fault fault = Fault::None,
                          std::uint64_t at = 0)
        : ops_(ops), fault_(fault), at_(at)
    {
    }

    std::string name() const override { return "loop"; }

    void
    setup(System &sys) override
    {
        addData(sys);
    }

    void
    run(System &sys) override
    {
        std::vector<Addr> touched;
        for (std::uint64_t i = 0; i < ops_; ++i) {
            if (i == at_ && fault_ == Fault::Throw)
                fatal("loop workload failed at op ", i);
            if (i == at_ && fault_ == Fault::LateRegion) {
                sys.kernel().addressSpace().addRegion(
                    "late", dataBase + 32 * MB, MB, {});
            }
            touched.push_back(dataBase + (i * 64) % (16 * MB));
            sys.cpu().load(touched.back());
        }
    }

  private:
    std::uint64_t ops_;
    Fault fault_;
    std::uint64_t at_;
};

/** The message of the FatalError @p run throws, or "" if none. */
template <typename Run>
std::string
fatalMessage(Run &&run)
{
    try {
        run();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
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

TEST(MulticoreEquivalence, StreamedMixMatchesCapturedImages)
{
    // A streamed mix generates each process's ops while it runs; the
    // same programs run from whole captured images must not change a
    // thing, whatever the core count and the quantum. A quantum of 1
    // ends a slice inside nearly every burst of the dispatch loop.
    const std::vector<std::string> mix{"em3d", "compress95", "em3d",
                                       "compress95"};
    std::vector<ProgramImage> images;
    for (const std::string &name : mix)
        images.push_back(captureProgram(name, 0.02, 0, multicoreConfig(1)));

    for (const unsigned cores : {2u, 4u}) {
        for (const Cycles quantum : {Cycles{0}, Cycles{1}, Cycles{200'000}}) {
            SystemConfig config = multicoreConfig(cores);
            config.sched.quantum = quantum;
            const auto streamed =
                testeq::runConfigured(config, [&mix](System &s) {
                    runMultiprogMix(s, mix, 0.02, 0);
                });
            const auto captured =
                testeq::runConfigured(config, [&images](System &s) {
                    runPrograms(s, images);
                });
            testeq::expectIdentical(
                streamed, captured,
                "streamed vs captured, " + std::to_string(cores) +
                    " cores, quantum " + std::to_string(quantum));
        }
    }
}

TEST(MulticoreEquivalence, WorkloadFailureLeavesTheMix)
{
    // Process 1 fails during its first ring fill, while process 0 is
    // suspended with its first ring full and process 2 has not
    // started: the error leaves the mix, and process 0's frames are
    // unwound (under LeakSanitizer, its host vector would leak).
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.push_back(std::make_unique<LoopWorkload>(100'000));
    workloads.push_back(std::make_unique<LoopWorkload>(
        100'000, LoopWorkload::Fault::Throw, 5'000));
    workloads.push_back(std::make_unique<LoopWorkload>(100'000));
    System sys(multicoreConfig(2));
    EXPECT_EQ(fatalMessage([&] { runWorkloads(sys, std::move(workloads)); }),
              "loop workload failed at op 5000");

    // The same failure while the scheduler is dispatching: every
    // other generator is suspended mid-program.
    workloads.clear();
    for (unsigned p = 0; p < 3; ++p)
        workloads.push_back(std::make_unique<LoopWorkload>(100'000));
    workloads.push_back(std::make_unique<LoopWorkload>(
        100'000, LoopWorkload::Fault::Throw, 50'000));
    System mixed(multicoreConfig(2));
    EXPECT_EQ(
        fatalMessage([&] { runWorkloads(mixed, std::move(workloads)); }),
        "loop workload failed at op 50000");
}

TEST(MulticoreEquivalence, RegionAfterFirstRingIsFatal)
{
    // The layout is declared on the mix machine after the first ring
    // fill; a region declared once ops were handed out would be
    // missing from it.
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.push_back(std::make_unique<LoopWorkload>(
        100'000, LoopWorkload::Fault::LateRegion, 20'000));
    System sys(multicoreConfig(1));
    const std::string message =
        fatalMessage([&] { runWorkloads(sys, std::move(workloads)); });
    EXPECT_NE(message.find("workload 'loop' declared region 'late' after "
                           "its first ops were handed out"),
              std::string::npos)
        << message;
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
    // Four ops fill the ring, which hands them off and starts over.
    KeepingRing ring(4);
    Cpu &cpu = recording->cpu();
    cpu.setRecorder(&ring);

    cpu.load(dataBase);
    cpu.store(dataBase + 64);
    cpu.execute(10);
    cpu.executeAt(5, dataBase + 128);
    EXPECT_EQ(cpu.dataAccesses(), 0u);
    EXPECT_EQ(recording->cache().accesses(), 0u);
    EXPECT_EQ(cpu.now(), 0u);
    EXPECT_EQ(ring.handoffs, 1u);
    EXPECT_EQ(ring.size(), 0u);

    // Kernel services still run, so the program sees its real break.
    for (const Addr bytes : {Addr{4096}, Addr{100}, 3 * MB})
        EXPECT_EQ(cpu.sbrk(bytes), plain->cpu().sbrk(bytes));

    using Kind = CpuOpRecord::Kind;
    ASSERT_EQ(ring.size(), 3u);
    std::vector<CpuOpRecord> ops = ring.kept;
    ops.insert(ops.end(), ring.data(), ring.data() + ring.size());
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
    KeepingRing ring(4);
    sys.cpu().setRecorder(&ring);
    EXPECT_THROW(sys.cpu().load(Addr{1} << 32), FatalError);
    EXPECT_THROW(sys.cpu().execute(Counter{1} << 32), FatalError);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.kept.empty());
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
