#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "base/logging.hh"
#include "workloads/multiprog.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;

namespace perfbench
{

namespace
{

/** What an op cost, judged by the public counters it moved. An op that
 *  moved several is charged to the first of page fault (a frame was
 *  allocated: demand paging below the TLB trap), TLB miss, MTLB miss,
 *  cache miss. */
enum OpClass : unsigned
{
    FastHit,
    CacheMiss,
    MtlbMiss,
    TlbMiss,
    PageFault,
    Execute,
    Service,
    NumClasses
};

const char *const className[NumClasses] = {
    "fast hit", "cache miss", "MTLB miss", "TLB miss", "page fault",
    "execute", "kernel service"};

/** The src/ module each class's time is charged to (a cache miss
 *  includes the bus, MMC and DRAM behind it). */
const char *const classLayer[NumClasses] = {
    "cpu", "cache", "mtlb", "tlb", "os", "cpu", "os"};

/** One in (timeMask + 1) ops is timed, and as often an empty clock
 *  pair is timed in its place, picked by a fixed xorshift stream so
 *  sampling cannot alias with a workload's loop period. */
constexpr std::uint64_t timeMask = 7;

/** The plain and the traced replay alternate in chunks of this many
 *  ops, so a slow stretch of the host falls on both alike. */
constexpr std::size_t chunkOps = std::size_t(1) << 20;

struct ClassTally
{
    std::uint64_t ops = 0;
    std::uint64_t timed = 0;
    double timedNs = 0;     ///< clock pairs included
};

/** One program replayed plain and traced on two fresh machines, in
 *  alternating chunks. */
struct ReplayTrace
{
    ClassTally cls[NumClasses];
    double plainS = 0;
    double tracedS = 0;
    /** Mean empty clock pair, timed between the ops of this replay. */
    double clockPairNs = 0;
    Cycles plainCycles = 0;
    Cycles tracedCycles = 0;

    /** Mean cost of one op of class @p c, less the clock pair. */
    double
    meanNs(unsigned c) const
    {
        return cls[c].timed ? cls[c].timedNs / cls[c].timed - clockPairNs
                            : 0.0;
    }
};

void
applyOp(Cpu &cpu, const CpuOpRecord &op)
{
    switch (op.kind) {
      case CpuOpRecord::Kind::Load:
        cpu.load(op.a);
        break;
      case CpuOpRecord::Kind::Store:
        cpu.store(op.a);
        break;
      case CpuOpRecord::Kind::Execute:
        cpu.execute(op.n);
        break;
      case CpuOpRecord::Kind::ExecuteAt:
        cpu.executeAt(op.n, op.a);
        break;
      case CpuOpRecord::Kind::Remap:
        cpu.remap(op.a, op.n);
        break;
      case CpuOpRecord::Kind::Sbrk:
        cpu.sbrk(op.n);
        break;
      case CpuOpRecord::Kind::SetSbrkPrealloc:
        cpu.setSbrkPrealloc(op.n);
        break;
      case CpuOpRecord::Kind::Recolor:
        cpu.recolorPage(op.a, static_cast<unsigned>(op.n));
        break;
    }
}

bool
isService(CpuOpRecord::Kind kind)
{
    return kind == CpuOpRecord::Kind::Remap ||
           kind == CpuOpRecord::Kind::Sbrk ||
           kind == CpuOpRecord::Kind::SetSbrkPrealloc ||
           kind == CpuOpRecord::Kind::Recolor;
}

/** Declare @p image's regions in a fresh single-core machine, the heap
 *  through initHeap so sbrk is armed (as runPrograms does). */
void
declareLayout(System &sys, const ProgramImage &image)
{
    Kernel &kernel = sys.kernel();
    for (const VmRegion &r : image.regions) {
        if (image.hasHeap && r.base == image.heapBase && r.name == "heap")
            kernel.initHeap(image.heapBase, image.heapBytes);
        else
            kernel.addressSpace().addRegion(r.name, r.base, r.size, r.prot);
    }
}

double
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

ReplayTrace
traceReplay(const ProgramImage &image, const SystemConfig &single)
{
    ReplayTrace t;
    System plain(single);
    declareLayout(plain, image);
    Cpu &plain_cpu = plain.cpu();
    System sys(single);
    declareLayout(sys, image);
    Cpu &cpu = sys.cpu();
    const Tlb &tlb = sys.tlb();
    const Cache &cache = sys.cache();
    Mmc &mmc = sys.memsys().mmc();
    const Mtlb *mtlb = mmc.hasMtlb() ? &mmc.mtlb() : nullptr;
    const FrameAllocator &frames = sys.kernel().frames();
    std::uint64_t rng = 0x2545f4914f6cdd1dULL;
    std::uint64_t pairs = 0;
    double pair_ns = 0;

    const std::vector<CpuOpRecord> &ops = image.ops;
    for (std::size_t begin = 0; begin < ops.size(); begin += chunkOps) {
        const std::size_t end = std::min(ops.size(), begin + chunkOps);
        const auto p0 = Clock::now();
        for (std::size_t i = begin; i < end; ++i)
            applyOp(plain_cpu, ops[i]);
        const auto p1 = Clock::now();
        t.plainS += secondsBetween(p0, p1);
        for (std::size_t i = begin; i < end; ++i) {
            const CpuOpRecord &op = ops[i];
            const bool service = isService(op.kind);
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            const bool timed = service || (rng & timeMask) == 0;
            if (!service && (rng & timeMask) == 1) {
                const auto a = Clock::now();
                const auto b = Clock::now();
                pair_ns += nsBetween(a, b);
                ++pairs;
            }
            const std::uint64_t tlb0 = tlb.misses();
            const std::uint64_t cache0 = cache.misses();
            const std::uint64_t mtlb0 = mtlb ? mtlb->misses() : 0;
            const Addr free0 = frames.numFree();
            double ns = 0;
            if (timed) {
                const auto a = Clock::now();
                applyOp(cpu, op);
                const auto b = Clock::now();
                ns = nsBetween(a, b);
            } else {
                applyOp(cpu, op);
            }
            OpClass c;
            if (service)
                c = Service;
            else if (frames.numFree() != free0)
                c = PageFault;
            else if (tlb.misses() != tlb0)
                c = TlbMiss;
            else if (mtlb && mtlb->misses() != mtlb0)
                c = MtlbMiss;
            else if (cache.misses() != cache0)
                c = CacheMiss;
            else if (op.kind == CpuOpRecord::Kind::Load ||
                     op.kind == CpuOpRecord::Kind::Store)
                c = FastHit;
            else
                c = Execute;
            ClassTally &tally = t.cls[c];
            ++tally.ops;
            if (timed) {
                ++tally.timed;
                tally.timedNs += ns;
            }
        }
        t.tracedS += secondsBetween(p1, Clock::now());
    }
    t.clockPairNs = pairs ? pair_ns / pairs : 0.0;
    t.plainCycles = plain.totalCycles();
    t.tracedCycles = sys.totalCycles();
    return t;
}

/** One line of @p t's per-class op counts and mean costs. */
void
printReplay(const std::string &name, const ReplayTrace &t)
{
    std::printf("  %-11s", name.c_str());
    for (unsigned c = 0; c < NumClasses; ++c) {
        std::printf(" %s %llu x %.0f ns;", className[c],
                    static_cast<unsigned long long>(t.cls[c].ops),
                    t.meanNs(c));
    }
    std::printf("\n");
}

/**
 * Layer times summed over replays. A missing access is charged a fast
 * hit's cost to the CPU and its extra cost to its layer.
 *
 * An op timed alone costs more than it does in the untraced loop, where
 * consecutive ops overlap. That isolation cost is measured per replay as
 * what the per-class means add up to beyond the untraced replay, per op.
 * It is taken out of the fast-hit and execute rows and reported on its
 * own; the miss rows, being differences to a fast hit, do not carry it.
 * The layer rows then sum to the untraced replay.
 */
struct LayerSplit
{
    double seconds[NumClasses] = {};
    std::uint64_t ops[NumClasses] = {};
    double isolationS = 0;
    double plainS = 0;
    double tracedS = 0;
    double clockPairNs = 0;     ///< the largest of the replays
    std::uint64_t accessOps = 0;    ///< every load/store-like op

    void
    add(const ReplayTrace &t)
    {
        std::uint64_t n = 0;    // every op but the services
        double means_s = 0;
        for (unsigned c = 0; c < NumClasses; ++c) {
            means_s += 1e-9 * t.cls[c].ops * t.meanNs(c);
            if (c != Service)
                n += t.cls[c].ops;
        }
        const double isolation = n ? 1e9 * (means_s - t.plainS) / n : 0.0;
        const double hit = t.meanNs(FastHit);
        for (unsigned c = 0; c < NumClasses; ++c) {
            const std::uint64_t k = t.cls[c].ops;
            ops[c] += k;
            if (c == CacheMiss || c == MtlbMiss || c == TlbMiss ||
                c == PageFault) {
                seconds[c] += 1e-9 * k * (t.meanNs(c) - hit);
                seconds[FastHit] += 1e-9 * k * (hit - isolation);
                accessOps += k;
            } else if (c == Service) {
                seconds[c] += 1e-9 * k * t.meanNs(c);
            } else {
                seconds[c] += 1e-9 * k * (t.meanNs(c) - isolation);
                if (c == FastHit)
                    accessOps += k;
            }
        }
        isolationS += 1e-9 * n * isolation;
        plainS += t.plainS;
        tracedS += t.tracedS;
        clockPairNs = std::max(clockPairNs, t.clockPairNs);
    }

    double
    attributedS() const
    {
        double sum = 0;
        for (double s : seconds)
            sum += s;
        return sum;
    }

    /** The isolation cost per op (services aside). */
    double
    isolationNs() const
    {
        const std::uint64_t n = accessOps + ops[Execute];
        return n ? 1e9 * isolationS / static_cast<double>(n) : 0.0;
    }

    /** Mean cost in ns over @p n ops of layer @p c's seconds. */
    double
    perOpNs(OpClass c, std::uint64_t n) const
    {
        return n ? 1e9 * seconds[c] / static_cast<double>(n) : 0.0;
    }
};

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Host time of the whole traced run, phase by phase (all jobs). */
struct PhaseTimes
{
    double constructS = 0;
    double setupS = 0;
    double captureS = 0;
    double replayS = 0;     ///< the untraced replay (or mix run)
    double auditS = 0;
    double dumpS = 0;
    double wallS = 0;       ///< the jobs' own turnaround
    std::uint64_t ops = 0;
    double imageMb = 0;
};

void
printSplit(const LayerSplit &split)
{
    std::printf("\nper-op split of the replay (one op in %llu timed, "
                "%.1f ns clock pair subtracted):\n",
                static_cast<unsigned long long>(timeMask + 1),
                split.clockPairNs);
    std::printf("  %-15s %-6s %14s %12s %9s\n", "class", "layer", "ops",
                "layer s", "share");
    for (unsigned c = 0; c < NumClasses; ++c) {
        std::printf("  %-15s %-6s %14llu %12.4f %8.1f%%\n", className[c],
                    classLayer[c],
                    static_cast<unsigned long long>(split.ops[c]),
                    split.seconds[c],
                    100.0 * ratio(split.seconds[c], split.plainS));
    }
    std::printf("the layers sum to %.4f s, the untraced replay, after "
                "%.4f s of isolation cost (%.1f ns per op, %.1f%% of the "
                "replay) is taken out of the fast-hit and execute rows: "
                "timing an op alone costs that much more than running it "
                "in the untraced loop, and the miss rows are differences "
                "to a fast hit, so they do not carry it\n",
                split.attributedS(), split.isolationS, split.isolationNs(),
                100.0 * ratio(split.isolationS, split.plainS));
    std::printf("traced replay %.4f s against %.4f s untraced, in "
                "alternating chunks of %zu ops (tracing overhead %.2fx)\n",
                split.tracedS, split.plainS, chunkOps,
                ratio(split.tracedS, split.plainS));
    std::printf("note: the workload generators' own time is not "
                "isolated here: capture_s includes it, while the replay "
                "streams the op image from memory instead. Splitting it "
                "needs tracing inside the program.\n");
}

std::vector<Metric>
layerMetrics(const std::vector<json::Value> &trees, const LayerSplit &split,
             const PhaseTimes &p)
{
    auto sum = [&trees](auto read) {
        double s = 0;
        for (const json::Value &t : trees)
            s += read(t);
        return s;
    };
    auto stat = [&sum](const char *path) {
        return sum([path](const json::Value &t) { return statOf(t, path); });
    };
    auto cores = [&sum](const char *path) {
        return sum([path](const json::Value &t) {
            return statAllCores(t, path);
        });
    };

    const double tlb_misses = cores("tlb.misses");
    const double tlb_hits = cores("tlb.hits");
    const double cache_misses = stat("cache.misses");
    const double mtlb_misses = stat("mmc.mtlb.misses");
    const double mtlb_hits = stat("mmc.mtlb.hits");
    const double dram = stat("mmc.dram.accesses");
    const double loads = cores("cpu.loads");
    const double stores = cores("cpu.stores");

    return {
        {"workloads.ops", static_cast<double>(p.ops), "count"},
        {"workloads.image_mb", p.imageMb, "MB"},
        {"workloads.capture_s", p.captureS, "s"},
        {"workloads.replay_s", p.replayS, "s"},
        {"workloads.setup_s", p.setupS, "s"},
        {"sim.construct_s", p.constructS, "s"},
        {"cpu.accesses", loads + stores, "count"},
        {"cpu.instructions", cores("cpu.instructions"), "count"},
        {"cpu.hit_ns", split.perOpNs(FastHit, split.accessOps), "ns"},
        {"cpu.hit_s", split.seconds[FastHit], "s"},
        {"cpu.exec_ns", split.perOpNs(Execute, split.ops[Execute]), "ns"},
        {"cpu.exec_s", split.seconds[Execute], "s"},
        {"tlb.misses", tlb_misses, "count"},
        {"tlb.miss_ratio", ratio(tlb_misses, tlb_hits + tlb_misses),
         "ratio"},
        {"uitlb.misses", cores("uitlb.misses"), "count"},
        {"tlb.miss_ns", split.perOpNs(TlbMiss, split.ops[TlbMiss]), "ns"},
        {"tlb.miss_s", split.seconds[TlbMiss], "s"},
        {"kernel.vm_faults", stat("kernel.vm_faults"), "count"},
        {"kernel.remap_pages", stat("kernel.remap_pages"), "count"},
        {"kernel.sbrk_calls", stat("kernel.sbrk_calls"), "count"},
        {"kernel.shootdowns", sum([](const json::Value &t) {
             return statPrefixSum(t, "kernel", "shootdowns_core");
         }),
         "count"},
        {"kernel.fault_ns", split.perOpNs(PageFault, split.ops[PageFault]),
         "ns"},
        {"kernel.fault_s", split.seconds[PageFault], "s"},
        {"kernel.service_s", split.seconds[Service], "s"},
        {"cache.misses", cache_misses, "count"},
        {"cache.miss_ratio", ratio(cache_misses, stat("cache.accesses")),
         "ratio"},
        {"cache.write_backs", stat("cache.write_backs"), "count"},
        {"cache.miss_ns", split.perOpNs(CacheMiss, split.ops[CacheMiss]),
         "ns"},
        {"cache.miss_s", split.seconds[CacheMiss], "s"},
        {"bus.transactions", stat("bus.transactions"), "count"},
        {"bus.queue_cycles", stat("bus.queue_cycles"), "cycles"},
        {"mmc.operations", stat("mmc.operations"), "count"},
        {"mmc.shadow_ops", stat("mmc.shadow_ops"), "count"},
        {"mtlb.misses", mtlb_misses, "count"},
        {"mtlb.hit_ratio", ratio(mtlb_hits, mtlb_hits + mtlb_misses),
         "ratio"},
        {"mtlb.miss_ns", split.perOpNs(MtlbMiss, split.ops[MtlbMiss]),
         "ns"},
        {"mtlb.miss_s", split.seconds[MtlbMiss], "s"},
        {"dram.accesses", dram, "count"},
        {"dram.row_hit_ratio", ratio(stat("mmc.dram.row_hits"), dram),
         "ratio"},
        {"check.audits", stat("check.audits"), "count"},
        {"check.audit_s", p.auditS, "s"},
        {"check.audit_share", ratio(p.auditS, p.wallS), "ratio"},
        {"stats.dump_s", p.dumpS, "s"},
        {"trace.wall_s", p.wallS, "s"},
        {"trace.clock_pair_ns", split.clockPairNs, "ns"},
        {"trace.replay_traced_s", split.tracedS, "s"},
        {"trace.replay_plain_s", split.plainS, "s"},
        {"trace.overhead", ratio(split.tracedS, split.plainS), "ratio"},
        {"trace.isolation_s", split.isolationS, "s"},
        {"trace.isolation_share", ratio(split.isolationS, split.plainS),
         "ratio"},
        {"trace.isolation_ns", split.isolationNs(), "ns"},
    };
}

double
imageMb(const ProgramImage &image)
{
    return static_cast<double>(image.ops.size() * sizeof(CpuOpRecord)) /
           (1024.0 * 1024.0);
}

/** The machine a captured program replays on: one core, no audits. */
SystemConfig
singleCore(const SystemConfig &machine)
{
    SystemConfig single = machine;
    single.cores = 1;
    single.check.enabled = false;
    return single;
}

} // namespace

TracedRun
runTraced(const WorkloadSpec &w, const SystemConfig &machine,
          std::uint64_t seed, const References &refs)
{
    TracedRun out;
    LayerSplit split;
    PhaseTimes p;
    std::vector<json::Value> trees;
    const SystemConfig single = singleCore(machine);
    auto fail = [&out](const std::string &job, const std::string &why) {
        ++out.failed;
        std::printf("FAILED %s: %s\n", job.c_str(), why.c_str());
    };

    // A FatalError or panic anywhere in a job fails that job only.
    auto guarded = [&fail](const std::string &job, auto &&body) {
        try {
            body();
        } catch (const FatalError &e) {
            fail(job, std::string("fatal: ") + e.what());
        } catch (const PanicError &e) {
            fail(job, std::string("panic: ") + e.what());
        }
    };

    if (!w.mix) {
        for (const std::string &job : w.jobs()) {
            ++out.attempted;
            guarded(job, [&] {
                const JobRun direct = runJob(w, job, machine, seed);
                const std::string why = checkRun(
                    direct, refs.find(w, w.scale, seed, job), nullptr);
                if (!why.empty())
                    return fail(job, why);
                p.constructS += direct.constructS;
                p.setupS += direct.setupS;
                p.auditS += direct.auditS;
                p.dumpS += direct.dumpS;
                p.wallS += direct.wallS;
                trees.push_back(direct.stats);

                const auto t0 = Clock::now();
                const ProgramImage image =
                    captureProgram(job, w.scale, seed, machine);
                const double capture_s = secondsBetween(t0, Clock::now());
                p.captureS += capture_s;
                p.ops += image.ops.size();
                p.imageMb += imageMb(image);

                const ReplayTrace t = traceReplay(image, single);
                if (t.plainCycles != direct.counts.cycles ||
                    t.tracedCycles != direct.counts.cycles) {
                    return fail(job, "replay diverged from the direct run");
                }
                p.replayS += t.plainS;
                split.add(t);
                std::printf("%-12s direct %.3f s, capture %.3f s, replay "
                            "%.3f s plain / %.3f s traced, %zu ops\n",
                            job.c_str(), direct.wallS, capture_s, t.plainS,
                            t.tracedS, image.ops.size());
                printReplay(job, t);
            });
        }
    } else {
        ++out.attempted;
        guarded("mix", [&] {
            const auto t0 = Clock::now();
            auto sys = std::make_unique<System>(machine);
            const auto t1 = Clock::now();
            std::map<std::string, ProgramImage> images;
            for (const std::string &name : w.programs) {
                if (!images.count(name))
                    images.emplace(name, captureProgram(name, w.scale,
                                                        seed, machine));
            }
            const auto t2 = Clock::now();
            std::vector<ProgramImage> programs;
            for (const std::string &name : w.programs) {
                programs.push_back(images.at(name));
                p.ops += programs.back().ops.size();
                p.imageMb += imageMb(programs.back());
            }
            const auto t3 = Clock::now();
            runPrograms(*sys, programs);
            const auto t4 = Clock::now();
            sys->audit();
            const auto t5 = Clock::now();
            JobRun mix;
            mix.stats = sys->rootStats().toJson();
            const auto t6 = Clock::now();
            mix.counts = countsOf(*sys);
            sys.reset();
            mix.ok = statOf(mix.stats, "check.violations") == 0;
            if (!mix.ok)
                mix.error = "auditor reported violations";

            SystemConfig quiet = machine;
            quiet.check.enabled = false;
            System plain(quiet);
            const auto t7 = Clock::now();
            runPrograms(plain, programs);
            const double plain_s = secondsBetween(t7, Clock::now());
            const std::string why =
                countsOf(plain) != mix.counts
                    ? "audits changed the simulated results"
                    : checkRun(mix, refs.find(w, w.scale, seed, "mix"),
                               nullptr);
            if (!why.empty())
                fail("mix", why);

            p.constructS = secondsBetween(t0, t1);
            p.captureS = secondsBetween(t1, t2);
            p.replayS = plain_s;
            p.auditS = secondsBetween(t3, t4) - plain_s +
                       secondsBetween(t4, t5);
            p.dumpS = secondsBetween(t5, t6);
            p.wallS = secondsBetween(t0, t6) - secondsBetween(t2, t3);
            trees.push_back(std::move(mix.stats));
            std::printf("mix: construct %.3f s, capture %.3f s, run "
                        "%.3f s audited / %.3f s plain, final audit "
                        "%.3f s\n",
                        p.constructS, p.captureS, secondsBetween(t3, t4),
                        plain_s, secondsBetween(t4, t5));

            for (const auto &[name, image] : images) {
                System fresh(single);
                const auto s0 = Clock::now();
                makeWorkload(name, w.scale, seed)->setup(fresh);
                p.setupS += secondsBetween(s0, Clock::now());
                const ReplayTrace t = traceReplay(image, single);
                if (t.plainCycles != t.tracedCycles)
                    fail(name, "traced replay diverged from plain replay");
                split.add(t);
                printReplay(name, t);
            }
            std::printf("the per-op split comes from single-core replays "
                        "of the %zu distinct captured programs; the "
                        "scheduler's interleaving is not traced\n",
                        images.size());
        });
    }

    printSplit(split);
    out.metrics = layerMetrics(trees, split, p);
    return out;
}

} // namespace perfbench
