/**
 * @file
 * The mini-kernel VM model.
 *
 * Plays the role of the paper's BSD-based microkernel (§3.2): it owns
 * the physical frame allocator, the process address space, the hashed
 * page table the TLB-miss trap probes, and the shadow-region
 * allocator; and it implements the three OS-visible mechanisms the
 * paper adds:
 *
 *  - remap(): convert a virtual range to shadow-backed superpages
 *    (§2.3/§2.4) — allocate shadow ranges, install MMC mappings via
 *    uncached control writes, flush the affected cache lines, shoot
 *    down stale TLB/HPT entries, and insert superpage mappings.
 *
 *  - a superpage-aware sbrk() that preallocates large remapped
 *    chunks and satisfies small allocations from them (§2.3).
 *
 *  - per-base-page swap-out of shadow superpages using the MTLB's
 *    per-base-page dirty bits (§2.5), with a conventional
 *    whole-superpage variant for comparison.
 *
 * Every method returns the CPU cycles it consumed; memory accesses
 * made by kernel code go through the cache so that page tables
 * compete with user data for cache space (§3.5).
 */

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "mmc/memsys.hh"
#include "os/address_space.hh"
#include "os/frame_alloc.hh"
#include "os/hpt.hh"
#include "os/per_core.hh"
#include "os/shadow_alloc.hh"
#include "os/shadow_page_pool.hh"
#include "os/translation_edit.hh"
#include "stats/stats.hh"
#include "tlb/tlb.hh"

namespace mtlbsim
{

/** Kernel cost-model and policy configuration. */
struct KernelConfig
{
    /** @name TLB-miss trap handler (§3.2) */
    /** @{ */
    Cycles trapEntryCycles = 12;    ///< pipeline drain + state save
    Cycles trapExitCycles = 8;      ///< state restore + return
    Cycles perProbeCycles = 4;      ///< instructions per HPT probe
    Cycles tlbInsertCycles = 8;     ///< format + insert instruction
    /** @} */

    /** @name VM fault path (demand-zero) */
    /** @{ */
    Cycles vmFaultOverheadCycles = 120;
    Cycles zeroFillPerLineCycles = 2;
    /** @} */

    /** @name remap() and sbrk() (§2.3, §2.4, §3.3) */
    /** @{ */
    Cycles syscallOverheadCycles = 150;
    Cycles remapPerSuperpageCycles = 60;
    Cycles remapPerPageCycles = 12;
    Cycles shootdownPerPageCycles = 2;
    /** @} */

    /** @name Paging (§2.5) */
    /** @{ */
    /** CPU cost to queue one page's disk write (I/O is async). */
    Cycles diskQueueCycles = 400;
    /** Synchronous disk read latency for a faulted base page. */
    Cycles diskReadCycles = 1'200'000; ///< ~5 ms at 240 MHz
    /** @} */

    /** Cycles a remote core spends servicing one TLB-shootdown IPI
     *  (interrupt entry + invalidate + acknowledge). Charged to each
     *  remote core running the mutated address space; single-core
     *  machines never pay it. */
    Cycles ipiCycles = 300;

    unsigned hptBuckets = 16384;    ///< 16 K entries (§3.2)

    /** All-shadow operation (§4): every materialised page is mapped
     *  through a single shadow page, so the machine never exposes
     *  real physical addresses to the CPU — the mode the paper
     *  proposes for systems whose entire physical address space is
     *  populated with DRAM. remap() promotes such pages to proper
     *  superpages as usual. */
    bool allShadowMode = false;

    /** @name Online superpage promotion (§5, Romer-style) */
    /** @{ */
    /** Promote regions to shadow superpages automatically, without
     *  any remap() instrumentation in the program: the kernel
     *  accumulates TLB-miss handler time per candidate chunk and
     *  promotes a chunk once that time would have paid for the
     *  promotion — the competitive policy of Romer et al., with the
     *  threshold reflecting remapping's much lower cost than
     *  copying (the paper's §5 point). */
    bool onlinePromotion = false;
    /** Candidate chunk size class (2 = 64 KB). */
    unsigned promotionChunkClass = 2;
    /** Accumulated miss-handler cycles that trigger promotion. */
    Cycles promotionThresholdCycles = 20'000;
    /** Honour the program's explicit remap()/sbrk() superpage
     *  instrumentation. Set false to study online promotion alone:
     *  explicit requests become no-ops while the promotion policy
     *  (and remap()s it issues internally) still work. */
    bool honorExplicitRemap = true;
    /** @} */

    /** Seed for the frame allocator's free-list shuffle. Sweep jobs
     *  may perturb it to decorrelate physical layouts; runs with the
     *  same seed are bit-identical. */
    std::uint64_t frameSeed = 12345;
};

/** Fixed kernel physical-memory layout. */
struct KernelLayout
{
    static constexpr Addr kernelTextBase = 0x00000000;
    static constexpr Addr kernelTextBytes = 0x00100000;     // 1 MB
    /** Shadow table at 0x00100000 (Mmc::shadowTableBase). */
    static constexpr Addr hptBase = 0x00200000;
    static constexpr Addr ptPoolBase = 0x00400000;
    static constexpr Addr framePoolBase = 0x00800000;       // 8 MB
    static constexpr Addr firstUserPfn = framePoolBase >> basePageShift;

    /** Page-table pool slice for each process after the first. The
     *  4 MB pool region bounds the machine at 16 processes. */
    static constexpr Addr perProcessPtPoolBytes = 0x00040000; // 256 KB
    static constexpr unsigned maxProcesses =
        static_cast<unsigned>((framePoolBase - ptPoolBase) /
                              perProcessPtPoolBytes);
};

/** Result of an sbrk() call. */
struct SbrkResult
{
    Addr oldBreak = 0;  ///< start of the newly granted range
    Cycles cycles = 0;  ///< CPU cycles the call consumed
};

/** What a TLB-miss trap did. */
struct TlbMissResult
{
    Cycles cycles = 0;  ///< CPU cycles the handler consumed
    unsigned slot = 0;  ///< the TLB slot it filled, covering the address
};

/** Result of swapping a superpage out. */
struct SwapOutResult
{
    unsigned pagesWritten = 0;  ///< base pages queued to disk
    unsigned pagesClean = 0;    ///< base pages skipped (not dirty)
    Cycles cycles = 0;
};

/**
 * One process: its address space plus the per-process kernel state
 * (sbrk bookkeeping, online-promotion credit). Process 0 exists from
 * construction so single-process machines behave exactly as before.
 */
struct Process
{
    std::unique_ptr<AddressSpace> space;

    /** Online-promotion accounting: chunk base -> accumulated
     *  miss-handler cycles. */
    std::map<Addr, Cycles> promotionCredit;

    /** sbrk state. */
    Addr heapBase = 0;
    Addr brk = 0;
    Addr remapFrontier = 0;
    /** sbrk() preallocation chunk (vortex used 8 MB, §3.1). */
    Addr sbrkPrealloc = 8 * 1024 * 1024;
};

/**
 * The kernel.
 */
class Kernel
{
  public:
    /** A kernel with no core yet: attachCore() wires each one. */
    Kernel(const KernelConfig &config, const PhysMap &physmap,
           Cache &cache, MemorySystem &memsys,
           stats::StatGroup &parent);

    /** @name CPU-side trap entry points */
    /** @{ */

    /**
     * Service a CPU TLB miss at @p vaddr: probe the HPT, fall back
     * to the VM fault path (page-table walk + demand-zero) when the
     * translation is absent, and insert the mapping into the active
     * core's TLB. Right after that TLB's lookup of @p vaddr missed,
     * a base-page fill needs no overlap search (Tlb::insert).
     */
    TlbMissResult handleTlbMiss(Addr vaddr, AccessType type, Cycles now);

    /**
     * Service a precise MTLB fault (§4): the base page backing
     * @p vaddr inside a shadow superpage was swapped out. Reads it
     * back from disk, reinstalls the MMC mapping, and returns.
     */
    Cycles handleShadowPageFault(Addr vaddr, Cycles now);

    /** @} */

    /** @name System calls / libc services used by workloads */
    /** @{ */

    /**
     * A program's remap(): back [vbase, vbase+bytes) with shadow
     * superpages (§2.4). Sub-16 KB head/tail fragments stay
     * base-paged. Counted in remap_calls; the remaps that sbrk() and
     * online promotion issue are not.
     */
    Cycles remap(Addr vbase, Addr bytes, Cycles now);

    /**
     * Declare the heap: reserves [base, base+max_bytes) as the
     * "heap" region and arms sbrk(). @p base should be aligned to
     * the smallest superpage (16 KB) so remapping starts cleanly.
     */
    void initHeap(Addr base, Addr max_bytes);

    /** Superpage-aware sbrk() (§2.3). */
    SbrkResult sbrk(Addr bytes, Cycles now);

    /** Change the sbrk() preallocation chunk (vortex shrinks it
     *  from 8 MB to 2 MB after building its datasets, §3.1). */
    void setSbrkPrealloc(Addr bytes) { proc().sbrkPrealloc = bytes; }

    /** @} */

    /** @name Cores and processes (multi-core machine model)
     *
     * The kernel is shared machine state: every core traps into the
     * same instance, and the CPU model names itself via
     * setActiveCore() before each kernel entry. Each core attaches
     * its private translation structures and its IPI-service hook
     * with attachCore(), core 0 first. Processes are distinct
     * address spaces time-sliced onto cores by the scheduler
     * (src/workloads/multiprog.*).
     */
    /** @{ */

    /** Register one more core's private translation structures and
     *  the hook invoked on its CPU model for every shootdown IPI it
     *  services (never called on a single-core machine). The trap
     *  count, kernel.tlb_misses, includes the core's TLB misses. */
    void attachCore(Tlb &tlb, MicroItlb &uitlb,
                    std::function<void(Cycles)> charge_ipi);

    /** Name the core whose trap/syscall the kernel is servicing.
     *  Called by the CPU model before every kernel entry. */
    void setActiveCore(unsigned core) { cores_.activate(core); }

    unsigned numCores() const { return cores_.size(); }

    /** Create a new process (empty address space, fresh sbrk state);
     *  returns its index. Bounded by KernelLayout::maxProcesses. */
    unsigned createProcess();

    unsigned
    numProcesses() const
    {
        return static_cast<unsigned>(processes_.size());
    }

    /**
     * Context-switch @p core to @p proc: make @p core the active
     * core, purge its TLB and micro-ITLB (entries are not
     * ASID-tagged) and retarget its kernel entries at the new
     * address space.
     *
     * @return true when a switch happened (false if already bound,
     *         letting the scheduler charge switch cost only for real
     *         switches)
     */
    bool bindProcess(unsigned core, unsigned proc);

    unsigned coreProcess(unsigned core) const { return cores_.at(core).proc; }

    const Tlb &coreTlb(unsigned core) const { return cores_.at(core).tlb(); }

    AddressSpace &
    processSpace(unsigned proc)
    {
        panicIf(proc >= processes_.size(), "no process ", proc);
        return *processes_[proc]->space;
    }

    const AddressSpace &
    processSpace(unsigned proc) const
    {
        panicIf(proc >= processes_.size(), "no process ", proc);
        return *processes_[proc]->space;
    }

    /** Shootdown IPIs serviced by @p core (0 on single-core
     *  machines, where no IPI ever fires). */
    std::uint64_t
    shootdownsReceived(unsigned core) const
    {
        return cores_.at(core).shootdownsReceived();
    }

    /**
     * Make the next invalidateTranslation() skip the remote cores,
     * leaving them stale. Fault-injection support only (tools/fuzz's
     * skipShootdown class): proves the cross-core coherence
     * invariant actually fires.
     */
    void suppressNextShootdown() { suppressNextShootdown_ = true; }

    /** Is a suppression pending? The model checker hashes this:
     *  the flag changes future behaviour without touching any other
     *  architectural state, so ignoring it would let a planted
     *  skip-shootdown state be pruned against its clean twin. */
    bool shootdownSuppressed() const { return suppressNextShootdown_; }

    /** @} */

    /** @name Paging (§2.5) */
    /** @{ */

    /** Swap out only the dirty base pages of a shadow superpage,
     *  using the MTLB's per-base-page dirty bits. */
    SwapOutResult swapOutSuperpagePagewise(Addr vbase, Cycles now);

    /** Conventional superpage swap-out: every base page goes to
     *  disk because no per-base-page dirty state exists. */
    SwapOutResult swapOutSuperpageWhole(Addr vbase, Cycles now);

    /** @} */

    /** @name Shadow-memory extensions (§6 future work) */
    /** @{ */

    /**
     * No-copy page recoloring: remap the (present) base page at
     * @p vaddr to a shadow address of cache color @p color, without
     * copying any data. Only meaningful with a physically indexed
     * cache, where the shadow address chooses the set.
     *
     * @return CPU cycles consumed
     */
    Cycles recolorPage(Addr vaddr, unsigned color, Cycles now);

    /** Cache color a virtual page currently resolves to (follows
     *  the shadow mapping when one exists). */
    unsigned colorOf(Addr vaddr);

    /** @} */

    /** Define the active process's regions before running a
     *  workload. */
    AddressSpace &addressSpace() { return space(); }

    FrameAllocator &frames() { return frames_; }
    Hpt &hpt() { return hpt_; }

    /** Attach (or detach, with nullptr) a mapping-event observer.
     *  At most one observer is supported; it must outlive the
     *  kernel or be detached first, and it changes only between
     *  kernel entries (an open edit keeps the observer it opened
     *  with). */
    void setObserver(KernelObserver *observer) { observer_ = observer; }

    const KernelConfig &config() const { return config_; }

    /** Total cycles spent inside handleTlbMiss (Fig 3's miss time). */
    Cycles tlbMissCycles() const { return tlbMissCycles_.value(); }

    /** Cycles remap() spent flushing caches (§3.3 breakdown). */
    Cycles remapFlushCycles() const { return remapFlushCycles_.value(); }

    /** Total remap() cycles (§3.3). */
    Cycles remapTotalCycles() const { return remapCycles_.value(); }

    /** Base pages converted to shadow backing by remap(). */
    std::uint64_t remapPages() const { return remapPages_.value(); }

    /**
     * One core's private translation structures, as seen by the
     * shared kernel. Constness is deep: a const CoreCtx yields only
     * const structures and can neither be charged an IPI nor count
     * one, so PerCore's read-only view of a remote core cannot change
     * it. Public only so its confinement can be tested.
     */
    class CoreCtx
    {
      public:
        CoreCtx(Tlb &tlb, MicroItlb &uitlb,
                std::function<void(Cycles)> charge_ipi)
            : tlb_(&tlb), uitlb_(&uitlb), chargeIpi_(std::move(charge_ipi))
        {}

        Tlb &tlb() { return *tlb_; }
        const Tlb &tlb() const { return *tlb_; }
        MicroItlb &uitlb() { return *uitlb_; }

        /** Service one shootdown IPI: charge its cycles to the core's
         *  CPU model and count it. */
        void
        takeIpi(Cycles cycles)
        {
            chargeIpi_(cycles);
            ++*shootdowns_;
        }

        /** Register this core's received-shootdown counter. */
        void
        countShootdownsIn(stats::Scalar &counter)
        {
            shootdowns_ = &counter;
        }

        std::uint64_t
        shootdownsReceived() const
        {
            return shootdowns_ ? shootdowns_->value() : 0;
        }

        unsigned proc = 0;  ///< process currently bound to the core

      private:
        Tlb *tlb_;
        MicroItlb *uitlb_;
        std::function<void(Cycles)> chargeIpi_;
        /** Registered only on multi-core machines. */
        stats::Scalar *shootdowns_ = nullptr;
    };

  private:
    /** One cached kernel memory access (kernel is identity mapped
     *  through the pinned block TLB entry, so no TLB cost). */
    Cycles kernelAccess(Addr paddr, bool write, Cycles now);

    /** Zero-fill a freshly allocated frame through the cache. */
    Cycles zeroFill(Addr pfn, Cycles now);

    /** Allocate + zero a frame for @p vaddr and install the PTE. */
    Cycles materialisePage(Addr vaddr, Cycles now);

    /** Lazily constructed single-page shadow pool (§4/§6 modes). */
    ShadowPagePool &pagePool();

    /** Map a present base page through a single shadow page. A
     *  @p fresh page (zeroed, never yet mapped) skips the cache
     *  flush. */
    Cycles mapPageToShadow(Addr vaddr, Addr shadow_page, Cycles now,
                           bool fresh = false);

    /** Undo a single-page shadow mapping (frees the shadow page). */
    Cycles demoteSingleShadowPage(Addr vaddr, Cycles now);

    /** Both swap-outs: flush, then (@p pagewise only) read the
     *  page's dirty bit, write it to disk if dirty, invalidate its
     *  shadow mapping and free its frame, page by page. */
    SwapOutResult swapOutSuperpage(Addr vbase, Cycles now, bool pagewise);

    /** Charge HPT-touch costs for a list of entry addresses. */
    Cycles chargeHptTouches(const std::vector<Addr> &addrs, bool write,
                            Cycles now);

    /** Replace the HPT base-page entry of @p vbase (when there is
     *  one) with @p mapping, charging every entry write. */
    Cycles rewriteHptEntry(Addr vbase, const VmMapping &mapping,
                           Cycles now);

    /** Build the mapping the TLB should hold for @p vaddr. */
    VmMapping mappingFor(Addr vaddr) const;

    /** Highest heap address already granted (and remapped). */
    Addr grantedFrontier() const { return proc().remapFrontier; }

    /** Closing a translation edit is what retires translations. */
    friend class TranslationEdit;

    /**
     * Retire every cached translation of [vbase, vbase+bytes) after a
     * kernel mutation of translation state. Called only when a
     * TranslationEdit closes. On every core it purges the range
     * from the TLB (when bytes > 0), bumps the translation epoch
     * (retiring the page memo), and, with @p inval_uitlb, invalidates
     * the micro-ITLB. bytes == 0 is epoch-only: frame reuse below an
     * unchanged CPU-visible translation (the shadow-fault and
     * swap-out sites). TLB entries are not ASID-tagged, so every
     * *other* core is a shootdown-IPI target — the classic pre-ASID
     * Unix discipline: each is charged KernelConfig::ipiCycles and
     * counts one received shootdown.
     */
    void invalidateTranslation(Addr vbase, Addr bytes, bool inval_uitlb);

    /** remap()'s work, uncounted. @p internal marks the kernel's
     *  own calls (online promotion), which bypass the
     *  honorExplicitRemap policy. */
    Cycles remapRange(Addr vbase, Addr bytes, Cycles now, bool internal);

    /** Account a miss against the online-promotion policy and
     *  promote the containing chunk when it crosses the threshold.
     *  @return extra cycles spent promoting (0 normally). */
    Cycles notePromotionCandidate(Addr vaddr, Cycles handler_cycles,
                                  Cycles now);

    /** @name Active-core plumbing (all reads go through these) */
    /** @{ */
    Tlb &activeTlb() { return cores_.active().tlb(); }
    Process &proc() { return *processes_[cores_.active().proc]; }
    const Process &
    proc() const
    {
        return *processes_[cores_.active().proc];
    }
    AddressSpace &space() { return *proc().space; }
    const AddressSpace &space() const { return *proc().space; }
    /** HPT key tag for the active address space. */
    unsigned asid() const { return cores_.active().proc; }
    /** @} */

    KernelConfig config_;
    const PhysMap &physMap_;
    KernelObserver *observer_ = nullptr;
    Cache &cache_;
    MemorySystem &memsys_;

    FrameAllocator frames_;
    Hpt hpt_;
    /** The HPT entry addresses the miss handler probed or a kernel
     *  service wrote, reused across calls so touching the HPT
     *  allocates no host memory. */
    std::vector<Addr> hptTouches_;
    std::unique_ptr<ShadowAllocator> shadowAlloc_;
    std::unique_ptr<ShadowPagePool> pagePool_;

    /** All processes; [0] exists from construction. */
    std::vector<std::unique_ptr<Process>> processes_;
    /** All cores, in attach order. */
    PerCore<CoreCtx> cores_;
    /** Fault injection (see suppressNextShootdown()). */
    bool suppressNextShootdown_ = false;

    /** True while remap() materialises pages: suppresses all-shadow
     *  single-page mappings that the superpage under construction
     *  would immediately supersede. */
    bool inRemap_ = false;

    stats::StatGroup statGroup_;
    stats::Scalar &tlbMisses_;
    stats::Scalar &tlbMissCycles_;
    stats::Scalar &vmFaults_;
    stats::Scalar &vmFaultCycles_;
    stats::Scalar &zeroFilledPages_;
    stats::Scalar &remapCalls_;
    stats::Scalar &remapSuperpages_;
    stats::Scalar &remapPages_;
    stats::Scalar &remapCycles_;
    stats::Scalar &remapFlushCycles_;
    stats::Scalar &sbrkCalls_;
    stats::Scalar &shadowFaults_;
    stats::Scalar &pagesSwappedOut_;
    stats::Scalar &pagesSwappedIn_;
    stats::Scalar &recoloredPages_;
    stats::Scalar &allShadowPages_;
};

} // namespace mtlbsim
