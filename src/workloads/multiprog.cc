#include "workloads/multiprog.hh"

#include <deque>
#include <map>

#include "os/kernel.hh"
#include "workloads/workload.hh"

namespace mtlbsim
{

namespace
{

/** Replay one recorded operation on @p cpu. */
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
        // The captured program consumed the returned address when it
        // was recorded; the replayed kernel hands back the same one
        // (sbrk state is per-process and replay preserves order).
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

/** Re-create @p prog's address-space layout in process @p proc.
 *  Regions are replayed in declaration order with the heap region
 *  routed through Kernel::initHeap so the sbrk machinery is armed;
 *  initHeap acts on the active process, so the caller must have
 *  bound @p proc to the active core. */
void
declareLayout(Kernel &kernel, unsigned proc, const ProgramImage &prog)
{
    AddressSpace &space = kernel.processSpace(proc);
    for (const VmRegion &r : prog.regions) {
        if (prog.hasHeap && r.base == prog.heapBase &&
            r.name == "heap") {
            kernel.initHeap(prog.heapBase, prog.heapBytes);
        } else {
            space.addRegion(r.name, r.base, r.size, r.prot);
        }
    }
}

/**
 * Each core's CPU, resolved once: the dispatch loop in replay() reads
 * every core's clock on every operation. Kept out of replay(): inlined
 * there, System::cpu()'s bounds check changes the loop's register
 * allocation, and the audited 4-core mix ran about 20% slower
 * (perfbench mix-audited, GCC 12, Xeon 4 vCPU).
 */
[[gnu::noinline]] std::vector<Cpu *>
coreCpus(System &sys)
{
    std::vector<Cpu *> cpus(sys.numCores());
    for (unsigned c = 0; c < cpus.size(); ++c)
        cpus[c] = &sys.cpu(c);
    return cpus;
}

/** runPrograms() over images held by pointer, so processes running
 *  the same program share one image. */
Cycles
replay(System &sys, const std::vector<const ProgramImage *> &programs)
{
    Kernel &kernel = sys.kernel();
    const unsigned cores = sys.numCores();
    const unsigned nprog = static_cast<unsigned>(programs.size());
    fatalIf(nprog == 0, "multiprog mix needs at least one program");

    const Cycles quantum = sys.config().sched.quantum;
    const Cycles switch_cycles = sys.config().sched.switchCycles;

    // One process per program; process 0 is the kernel's initial
    // one. Layout declaration needs the process active (initHeap),
    // so each is briefly bound to core 0 — a no-op purge for the
    // 1-core/1-process case, untimed setup work otherwise.
    for (unsigned p = 0; p < nprog; ++p) {
        if (p > 0) {
            const unsigned created = kernel.createProcess();
            panicIf(created != p, "process ids not dense");
        }
        kernel.bindProcess(0, p);
        declareLayout(kernel, p, *programs[p]);
    }

    // Scheduler state: cores 0..C-1 start with processes 0..C-1 (no
    // switch cost — nothing ran yet); the rest wait in a global FIFO
    // ready queue.
    constexpr unsigned idle = ~0u;
    std::vector<unsigned> running(cores, idle);
    std::vector<Cycles> slice_end(cores, 0);
    // Each process's next op and the end of its program's image.
    struct Stream
    {
        const CpuOpRecord *next;
        const CpuOpRecord *end;
    };
    std::vector<Stream> streams(nprog);
    for (unsigned p = 0; p < nprog; ++p) {
        const std::vector<CpuOpRecord> &ops = programs[p]->ops;
        streams[p] = {ops.data(), ops.data() + ops.size()};
    }
    std::deque<unsigned> ready;
    const std::vector<Cpu *> cpus = coreCpus(sys);

    for (unsigned c = 0; c < cores && c < nprog; ++c) {
        kernel.bindProcess(c, c);
        running[c] = c;
        slice_end[c] = cpus[c]->now() + quantum;
    }
    for (unsigned p = cores; p < nprog; ++p)
        ready.push_back(p);

    // Dispatch loop: always advance the core with the smallest
    // clock (ties to the lowest id), one operation at a time. The
    // interleaving is a pure function of the inputs — no host
    // nondeterminism can leak in.
    while (true) {
        unsigned core = idle;
        for (unsigned c = 0; c < cores; ++c) {
            if (running[c] == idle)
                continue;
            if (core == idle || cpus[c]->now() < cpus[core]->now()) {
                core = c;
            }
        }
        if (core == idle)
            break;

        Cpu &cpu = *cpus[core];
        const unsigned proc = running[core];

        if (streams[proc].next == streams[proc].end) {
            // Program done: hand the core to the next waiter.
            if (ready.empty()) {
                running[core] = idle;
            } else {
                const unsigned next = ready.front();
                ready.pop_front();
                if (kernel.bindProcess(core, next))
                    cpu.charge(switch_cycles);
                running[core] = next;
                slice_end[core] = cpu.now() + quantum;
            }
            continue;
        }

        if (quantum > 0 && cpu.now() >= slice_end[core]) {
            if (ready.empty()) {
                // Nobody waiting: renew the slice for free rather
                // than charging a switch to the same process —
                // keeps 1-core/1-process replay identical to the
                // direct run.
                slice_end[core] = cpu.now() + quantum;
            } else {
                ready.push_back(proc);
                const unsigned next = ready.front();
                ready.pop_front();
                if (kernel.bindProcess(core, next))
                    cpu.charge(switch_cycles);
                running[core] = next;
                slice_end[core] = cpu.now() + quantum;
                continue;
            }
        }

        applyOp(cpu, *streams[proc].next++);
    }

    return sys.totalCycles();
}

} // namespace

ProgramImage
captureProgram(const std::string &workload_name, double scale,
               std::uint64_t seed, const SystemConfig &machine)
{
    // The scratch machine: same knobs, one core, auditing off. Its
    // CPU only records the program's ops; the kernel services it
    // still runs keep the process's break and layout current.
    SystemConfig scratch = machine;
    scratch.cores = 1;
    scratch.check.enabled = false;

    ProgramImage image;
    image.workload = workload_name;

    System sys(scratch);
    sys.cpu().setRecorder(&image.ops);

    auto workload = makeWorkload(workload_name, scale, seed);
    workload->setup(sys);
    workload->run(sys);
    sys.cpu().setRecorder(nullptr);

    image.regions = sys.kernel().addressSpace().regions();
    for (const VmRegion &r : image.regions) {
        if (r.name == "heap") {
            image.hasHeap = true;
            image.heapBase = r.base;
            image.heapBytes = r.size;
            break;
        }
    }
    return image;
}

Cycles
runPrograms(System &sys, const std::vector<ProgramImage> &programs)
{
    std::vector<const ProgramImage *> images;
    images.reserve(programs.size());
    for (const ProgramImage &p : programs)
        images.push_back(&p);
    return replay(sys, images);
}

Cycles
runMultiprogMix(System &sys, const std::vector<std::string> &workloads,
                double scale, std::uint64_t seed)
{
    // Capture each distinct workload once; every process running it
    // replays that one image into its own address space.
    std::map<std::string, ProgramImage> images;
    std::vector<const ProgramImage *> programs;
    programs.reserve(workloads.size());
    for (const std::string &name : workloads) {
        auto it = images.find(name);
        if (it == images.end()) {
            it = images.emplace(name, captureProgram(name, scale, seed,
                                                     sys.config()))
                     .first;
        }
        programs.push_back(&it->second);
    }
    return replay(sys, programs);
}

} // namespace mtlbsim
