#include "workloads/multiprog.hh"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "os/kernel.hh"

namespace mtlbsim
{

namespace
{

/** Ops a generator records before it yields: 192 KB per process. */
constexpr std::size_t ringOps = 16384;

/** A generator's stack. It is reserved, not committed, so only the
 *  pages a workload's frames reach take memory. */
constexpr std::size_t stackBytes = std::size_t{1} << 20;

/**
 * A stackful coroutine on glibc ucontext: resume() runs the body on
 * the fiber's own stack until the body calls yield() or returns. An
 * exception the body throws is caught on the fiber and rethrown by
 * resume(). Destroying a fiber whose body is suspended resumes it
 * once, with yield() throwing, so that its frames unwind and release
 * what they hold. Under ASan and TSan every switch is announced, so
 * they follow the stacks.
 */
class Fiber
{
  public:
    explicit Fiber(std::function<void()> body);
    ~Fiber();
    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Run the body until it yields or ends. */
    void resume();

    /** From the body: suspend it, returning from resume(). */
    void yield();

    bool done() const { return done_; }

  private:
    /** What yield() throws into a body whose fiber is destroyed. */
    struct Unwind
    {
    };

    static void entry(unsigned hi, unsigned lo);

    /** Switch from the caller's stack to the fiber's. */
    void switchIn();
    /** Switch back to the caller; @p exiting when the body is done,
     *  so this stack is never resumed. */
    void switchOut(bool exiting);

    std::function<void()> body_;
    void *map_;             ///< guard page, then the stack
    std::size_t mapBytes_;
    void *stack_;
    ucontext_t fiber_{};
    ucontext_t caller_{};
    std::exception_ptr error_;
    bool started_ = false;
    bool done_ = false;
    bool unwinding_ = false;
#if defined(__SANITIZE_ADDRESS__)
    const void *callerStack_ = nullptr;
    std::size_t callerStackBytes_ = 0;
#endif
#if defined(__SANITIZE_THREAD__)
    void *tsanFiber_;
    void *tsanCaller_ = nullptr;
#endif
};

Fiber::Fiber(std::function<void()> body) : body_(std::move(body))
{
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    mapBytes_ = page + stackBytes;
    map_ = mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1, 0);
    fatalIf(map_ == MAP_FAILED, "cannot map a generator stack");
    // The lowest page guards the stack: an overflow faults there.
    stack_ = static_cast<char *>(map_) + page;
    if (mprotect(map_, page, PROT_NONE) != 0 || getcontext(&fiber_) != 0) {
        munmap(map_, mapBytes_);
        fatal("cannot set up a generator context");
    }
    fiber_.uc_stack.ss_sp = stack_;
    fiber_.uc_stack.ss_size = stackBytes;
    fiber_.uc_link = nullptr;
    // makecontext passes int arguments: hand over `this` in halves.
    const auto self = reinterpret_cast<std::uint64_t>(this);
    makecontext(&fiber_, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self));
#if defined(__SANITIZE_THREAD__)
    tsanFiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
    if (started_ && !done_) {
        unwinding_ = true;
        switchIn();
    }
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsanFiber_);
#endif
#if defined(__SANITIZE_ADDRESS__)
    // Frames that left by exception may leave their redzones
    // poisoned; memory mapped here later must not inherit them.
    ASAN_UNPOISON_MEMORY_REGION(stack_, stackBytes);
#endif
    munmap(map_, mapBytes_);
}

void
Fiber::entry(unsigned hi, unsigned lo)
{
    auto *self = reinterpret_cast<Fiber *>(std::uint64_t{hi} << 32 | lo);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &self->callerStack_,
                                    &self->callerStackBytes_);
#endif
    // Nothing may leave this frame by exception: it has no caller.
    try {
        self->body_();
    } catch (const Unwind &) {
        // Destroyed while suspended; the frames are released.
    } catch (...) {
        self->error_ = std::current_exception();
    }
    self->done_ = true;
    self->switchOut(true);
}

void
Fiber::resume()
{
    started_ = true;
    switchIn();
    if (error_)
        std::rethrow_exception(error_);
}

void
Fiber::yield()
{
    switchOut(false);
    if (unwinding_)
        throw Unwind{};
}

void
Fiber::switchIn()
{
#if defined(__SANITIZE_ADDRESS__)
    void *fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, stack_, stackBytes);
#endif
#if defined(__SANITIZE_THREAD__)
    tsanCaller_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
    swapcontext(&caller_, &fiber_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void
Fiber::switchOut([[maybe_unused]] bool exiting)
{
#if defined(__SANITIZE_ADDRESS__)
    void *fake_stack = nullptr;
    __sanitizer_start_switch_fiber(exiting ? nullptr : &fake_stack,
                                   callerStack_, callerStackBytes_);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(tsanCaller_, 0);
#endif
    swapcontext(&fiber_, &caller_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, &callerStack_,
                                    &callerStackBytes_);
#endif
}

/** A process's ops as the scheduler consumes them. */
class OpStream
{
  public:
    virtual ~OpStream() = default;

    /** Make the process's next ops ready in [next, end); false once
     *  its program has ended. Called only on an empty stream; the
     *  first call also sets layout(). */
    virtual bool refill() = 0;

    /** The regions the program declared. */
    virtual const ProgramLayout &layout() const = 0;

    const CpuOpRecord *next = nullptr;
    const CpuOpRecord *end = nullptr;
};

/** A captured image, handed out whole as one ring. */
class ImageStream final : public OpStream
{
  public:
    explicit ImageStream(const ProgramImage &image) : image_(image) {}

    bool
    refill() override
    {
        if (handedOut_)
            return false;
        handedOut_ = true;
        next = image_.ops.data();
        end = next + image_.ops.size();
        return next != end;
    }

    const ProgramLayout &layout() const override { return image_; }

  private:
    const ProgramImage &image_;
    bool handedOut_ = false;
};

/** The generator machine: @p machine's knobs with one core, no MTLB,
 *  auditing off and a 4 KB cache. Its CPU only records, and its
 *  kernel's sbrk() returns the bump pointer that every machine's
 *  does. */
SystemConfig
generatorConfig(const SystemConfig &machine)
{
    SystemConfig config = machine;
    config.cores = 1;
    config.mtlbEnabled = false;
    config.check.enabled = false;
    config.cache.sizeBytes = 4 * 1024;
    return config;
}

/** A workload running on its own generator context against a private
 *  generator machine whose CPU records into this ring. */
class GeneratorStream final : public OpStream, private OpRing
{
  public:
    GeneratorStream(std::unique_ptr<Workload> workload,
                    const SystemConfig &machine)
        : OpRing(ringOps), workload_(std::move(workload)),
          machine_(generatorConfig(machine)), fiber_([this] {
              workload_->setup(machine_);
              workload_->run(machine_);
          })
    {
        machine_.cpu().setRecorder(this);
    }

    bool refill() override;

    const ProgramLayout &layout() const override { return layout_; }

  private:
    /** The ring is full: let the scheduler drain it. */
    void full() override { fiber_.yield(); }

    std::unique_ptr<Workload> workload_;
    System machine_;
    ProgramLayout layout_;
    bool laidOut_ = false;
    /** Declared last, so destroyed first: a suspended generator's
     *  frames use the workload and the machine while they unwind. */
    Fiber fiber_;
};

bool
GeneratorStream::refill()
{
    clear();
    if (!fiber_.done())
        fiber_.resume();
    const std::vector<VmRegion> &regions =
        machine_.kernel().addressSpace().regions();
    if (!laidOut_) {
        laidOut_ = true;
        layout_.workload = workload_->name();
        layout_.regions = regions;
        for (const VmRegion &r : regions) {
            if (r.name == "heap") {
                layout_.hasHeap = true;
                layout_.heapBase = r.base;
                layout_.heapBytes = r.size;
                break;
            }
        }
    } else if (regions.size() != layout_.regions.size()) {
        fatal("workload '", layout_.workload, "' declared region '",
              regions[layout_.regions.size()].name,
              "' after its first ops were handed out; a process "
              "declares its regions before its first op");
    }
    next = data();
    end = next + size();
    return next != end;
}

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
        // The program consumed the returned address when it was
        // recorded; this process's kernel hands back the same one
        // (sbrk state is per-process and the order is preserved).
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

/** Re-create @p layout in process @p proc. Regions are declared in
 *  order, the heap region through Kernel::initHeap so the sbrk
 *  machinery is armed; initHeap acts on the active process, so the
 *  caller must have bound @p proc to the active core. */
void
declareLayout(Kernel &kernel, unsigned proc, const ProgramLayout &layout)
{
    AddressSpace &space = kernel.processSpace(proc);
    for (const VmRegion &r : layout.regions) {
        if (layout.hasHeap && r.base == layout.heapBase &&
            r.name == "heap") {
            kernel.initHeap(layout.heapBase, layout.heapBytes);
        } else {
            space.addRegion(r.name, r.base, r.size, r.prot);
        }
    }
}

/**
 * Each core's CPU, resolved once: the dispatch loop in schedule()
 * reads every core's clock whenever a burst ends. Kept out of
 * schedule(): inlined there, System::cpu()'s bounds check changes the
 * loop's register allocation, and the audited 4-core mix ran about
 * 20% slower (perfbench mix-audited, GCC 12, Xeon 4 vCPU).
 */
[[gnu::noinline]] std::vector<Cpu *>
coreCpus(System &sys)
{
    std::vector<Cpu *> cpus(sys.numCores());
    for (unsigned c = 0; c < cpus.size(); ++c)
        cpus[c] = &sys.cpu(c);
    return cpus;
}

/** Run @p streams, one per process, on @p sys's cores. */
Cycles
schedule(System &sys, const std::vector<OpStream *> &streams)
{
    Kernel &kernel = sys.kernel();
    const unsigned cores = sys.numCores();
    const unsigned nprog = static_cast<unsigned>(streams.size());
    fatalIf(nprog == 0, "multiprog mix needs at least one program");

    const Cycles quantum = sys.config().sched.quantum;
    const Cycles switch_cycles = sys.config().sched.switchCycles;

    // One process per program; process 0 is the kernel's initial
    // one. Its layout is known once its stream first fills, and
    // declaring it needs the process active (initHeap), so each is
    // briefly bound to core 0 — a no-op purge for the
    // 1-core/1-process case, untimed setup work otherwise. A program
    // with no ops ends at its first dispatch.
    for (unsigned p = 0; p < nprog; ++p) {
        if (p > 0) {
            const unsigned created = kernel.createProcess();
            panicIf(created != p, "process ids not dense");
        }
        kernel.bindProcess(0, p);
        streams[p]->refill();
        declareLayout(kernel, p, streams[p]->layout());
    }

    // Scheduler state: cores 0..C-1 start with processes 0..C-1 (no
    // switch cost — nothing ran yet); the rest wait in a global FIFO
    // ready queue.
    constexpr unsigned idle = ~0u;
    constexpr Cycles never = ~Cycles{0};
    std::vector<unsigned> running(cores, idle);
    std::vector<Cycles> slice_end(cores, never);
    std::deque<unsigned> ready;
    const std::vector<Cpu *> cpus = coreCpus(sys);

    auto start_slice = [&](unsigned core) {
        slice_end[core] = quantum > 0 ? cpus[core]->now() + quantum : never;
    };
    for (unsigned c = 0; c < cores && c < nprog; ++c) {
        kernel.bindProcess(c, c);
        running[c] = c;
        start_slice(c);
    }
    for (unsigned p = cores; p < nprog; ++p)
        ready.push_back(p);

    // Dispatch loop: always advance the core with the smallest clock
    // (ties to the lowest id). The interleaving is a pure function of
    // the inputs — no host nondeterminism can leak in.
    while (true) {
        unsigned core = idle;
        unsigned rival = idle;
        for (unsigned c = 0; c < cores; ++c) {
            if (running[c] == idle)
                continue;
            if (core == idle || cpus[c]->now() < cpus[core]->now()) {
                rival = core;
                core = c;
            } else if (rival == idle ||
                       cpus[c]->now() < cpus[rival]->now()) {
                rival = c;
            }
        }
        if (core == idle)
            break;

        Cpu &cpu = *cpus[core];
        OpStream &stream = *streams[running[core]];

        if (stream.next == stream.end && !stream.refill()) {
            // Program done: hand the core to the next waiter.
            if (ready.empty()) {
                running[core] = idle;
            } else {
                const unsigned next = ready.front();
                ready.pop_front();
                if (kernel.bindProcess(core, next))
                    cpu.charge(switch_cycles);
                running[core] = next;
                start_slice(core);
            }
            continue;
        }

        if (cpu.now() >= slice_end[core]) {
            if (!ready.empty()) {
                ready.push_back(running[core]);
                const unsigned next = ready.front();
                ready.pop_front();
                if (kernel.bindProcess(core, next))
                    cpu.charge(switch_cycles);
                running[core] = next;
                start_slice(core);
                continue;
            }
            // Nobody waiting: renew the slice for free rather than
            // charging a switch to the same process — keeps
            // 1-core/1-process runs identical to the direct run.
            start_slice(core);
        }

        // A burst: this core keeps issuing while it would win the
        // scan above, that is while its clock stays below the
        // runner-up's (or equal, with a lower id), its slice lasts
        // and its stream holds ops. Exact, because an op only moves
        // other cores' clocks forward (shootdown IPIs charge them)
        // and changes no scheduler state.
        const Cycles rival_now = rival == idle ? never : cpus[rival]->now();
        const Cycles limit = slice_end[core];
        const CpuOpRecord *op = stream.next;
        const CpuOpRecord *const end = stream.end;
        do {
            applyOp(cpu, *op++);
        } while (op != end && cpu.now() < limit &&
                 (cpu.now() < rival_now ||
                  (cpu.now() == rival_now && core < rival)));
        stream.next = op;
    }

    return sys.totalCycles();
}

} // namespace

ProgramImage
captureProgram(const std::string &workload_name, double scale,
               std::uint64_t seed, const SystemConfig &machine)
{
    GeneratorStream stream(makeWorkload(workload_name, scale, seed),
                           machine);
    ProgramImage image;
    while (stream.refill())
        image.ops.insert(image.ops.end(), stream.next, stream.end);
    static_cast<ProgramLayout &>(image) = stream.layout();
    return image;
}

Cycles
runPrograms(System &sys, const std::vector<ProgramImage> &programs)
{
    std::vector<ImageStream> images(programs.begin(), programs.end());
    std::vector<OpStream *> streams;
    for (ImageStream &image : images)
        streams.push_back(&image);
    return schedule(sys, streams);
}

Cycles
runWorkloads(System &sys, std::vector<std::unique_ptr<Workload>> workloads)
{
    std::vector<std::unique_ptr<GeneratorStream>> generators;
    std::vector<OpStream *> streams;
    for (std::unique_ptr<Workload> &w : workloads) {
        generators.push_back(
            std::make_unique<GeneratorStream>(std::move(w), sys.config()));
        streams.push_back(generators.back().get());
    }
    return schedule(sys, streams);
}

Cycles
runMultiprogMix(System &sys, const std::vector<std::string> &workloads,
                double scale, std::uint64_t seed)
{
    std::vector<std::unique_ptr<Workload>> programs;
    for (const std::string &name : workloads)
        programs.push_back(makeWorkload(name, scale, seed));
    return runWorkloads(sys, std::move(programs));
}

} // namespace mtlbsim
