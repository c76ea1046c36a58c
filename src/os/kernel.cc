#include "os/kernel.hh"

#include <exception>
#include <string>

#include "base/debug.hh"
#include "base/intmath.hh"
#include "mmc/mmc.hh"

namespace mtlbsim
{

namespace
{

/** The frames above the kernel's own; fatal when memory cannot hold
 *  the kernel layout. */
Addr
userFrames(const PhysMap &physmap)
{
    fatalIf(physmap.numRealPages() <= KernelLayout::firstUserPfn,
            "installed memory too small for the kernel layout");
    return physmap.numRealPages() - KernelLayout::firstUserPfn;
}

} // namespace

Kernel::Kernel(const KernelConfig &config, const PhysMap &physmap,
               Cache &cache, MemorySystem &memsys,
               stats::StatGroup &parent)
    : config_(config), physMap_(physmap), cache_(cache), memsys_(memsys),
      frames_(KernelLayout::firstUserPfn, userFrames(physmap),
              config.frameSeed),
      hpt_(KernelLayout::hptBase, config.hptBuckets),
      statGroup_("kernel"),
      tlbMisses_(statGroup_.addScalar("tlb_misses",
                                      "TLB miss traps handled")),
      tlbMissCycles_(statGroup_.addScalar("tlb_miss_cycles",
                                          "CPU cycles in the TLB miss "
                                          "handler (Fig 3 metric)")),
      vmFaults_(statGroup_.addScalar("vm_faults",
                                     "demand-zero page faults")),
      vmFaultCycles_(statGroup_.addScalar("vm_fault_cycles",
                                          "CPU cycles in the VM fault "
                                          "path (excluded from TLB "
                                          "miss time)")),
      zeroFilledPages_(statGroup_.addScalar("zero_filled_pages",
                                            "frames zero-filled")),
      remapCalls_(statGroup_.addScalar("remap_calls", "remap() calls")),
      remapSuperpages_(statGroup_.addScalar("remap_superpages",
                                            "shadow superpages created")),
      remapPages_(statGroup_.addScalar("remap_pages",
                                       "base pages remapped")),
      remapCycles_(statGroup_.addScalar("remap_cycles",
                                        "total cycles inside remap() "
                                        "(§3.3)")),
      remapFlushCycles_(statGroup_.addScalar("remap_flush_cycles",
                                             "remap() cycles spent "
                                             "flushing the cache (§3.3)")),
      sbrkCalls_(statGroup_.addScalar("sbrk_calls", "sbrk() calls")),
      shadowFaults_(statGroup_.addScalar("shadow_faults",
                                         "MTLB precise faults handled")),
      pagesSwappedOut_(statGroup_.addScalar("pages_swapped_out",
                                            "base pages written to disk")),
      pagesSwappedIn_(statGroup_.addScalar("pages_swapped_in",
                                           "base pages read from disk")),
      recoloredPages_(statGroup_.addScalar("recolored_pages",
                                           "pages recolored via shadow "
                                           "remapping (§6)")),
      allShadowPages_(statGroup_.addScalar("all_shadow_pages",
                                           "pages mapped through "
                                           "single shadow pages (§4)"))
{
    parent.addChild(&statGroup_);

    if (physmap.shadowRange().size > 0) {
        shadowAlloc_ = std::make_unique<BucketShadowAllocator>(
            physmap.shadowRange(),
            BucketShadowAllocator::partitionFor(physmap.shadowRange()));
    }

    // Process 0: the whole page-table pool, exactly as the
    // single-process kernel laid it out. Later processes carve
    // bounded slices (createProcess).
    auto p0 = std::make_unique<Process>();
    p0->space =
        std::make_unique<AddressSpace>(KernelLayout::ptPoolBase);
    processes_.push_back(std::move(p0));
}

unsigned
Kernel::createProcess()
{
    const unsigned id = static_cast<unsigned>(processes_.size());
    fatalIf(id >= KernelLayout::maxProcesses,
            "page-table pool supports at most ",
            KernelLayout::maxProcesses, " processes");
    auto p = std::make_unique<Process>();
    p->space = std::make_unique<AddressSpace>(
        KernelLayout::ptPoolBase +
            Addr{id} * KernelLayout::perProcessPtPoolBytes,
        KernelLayout::perProcessPtPoolBytes);
    processes_.push_back(std::move(p));
    return id;
}

void
Kernel::attachCore(Tlb &tlb, MicroItlb &uitlb,
                   std::function<void(Cycles)> charge_ipi)
{
    // Received-shootdown counters exist only on multi-core machines
    // (conditional registration keeps single-core output
    // byte-identical). The second core's arrival registers core 0's
    // counter too; cores attach before any of them runs, so core 0
    // is still the active one.
    const unsigned id = cores_.size();
    if (id == 1) {
        panicIf(cores_.activeIndex() != 0,
                "cores attach before the machine runs");
        cores_.active().countShootdownsIn(statGroup_.addScalar(
            "shootdowns_core0",
            "TLB shootdown IPIs serviced by core 0"));
    }
    // Every TLB miss traps here: the trap count is the cores' misses.
    tlbMisses_.include(tlb.missStat());
    CoreCtx core(tlb, uitlb, std::move(charge_ipi));
    if (id != 0) {
        core.countShootdownsIn(statGroup_.addScalar(
            "shootdowns_core" + std::to_string(id),
            "TLB shootdown IPIs serviced by core " + std::to_string(id)));
    }
    cores_.add(std::move(core));
}

bool
Kernel::bindProcess(unsigned core, unsigned proc)
{
    cores_.activate(core);
    panicIf(proc >= processes_.size(), "no process ", proc);
    CoreCtx &ctx = cores_.active();
    if (ctx.proc == proc)
        return false;

    ctx.proc = proc;
    // Entries are not ASID-tagged: a context switch flushes the
    // core's whole translation state, page memo included (purgeAll
    // retires it even when the TLB held no purgeable entry).
    ctx.tlb().purgeAll();
    ctx.uitlb().invalidate();
    return true;
}

void
Kernel::invalidateTranslation(Addr vbase, Addr bytes, bool inval_uitlb)
{
    // Every remote core is a target: entries are not ASID-tagged, so
    // without residency tracking the kernel cannot rule out that a
    // core still caches something from this address space. A
    // suppressed broadcast (fault injection) spares them all.
    bool shoot_down = cores_.size() > 1;
    if (shoot_down && suppressNextShootdown_) {
        suppressNextShootdown_ = false;
        shoot_down = false;
    }
    cores_.broadcast([&](CoreCtx &core, bool remote) {
        if (remote && !shoot_down)
            return;
        if (bytes > 0)
            core.tlb().purgeRange(vbase, bytes);
        // purgeRange retires only the memo slots of the entries it
        // drops; the bump retires the core's whole page memo, since
        // the change may lie below the TLB (bytes == 0).
        core.tlb().bumpTranslationEpoch();
        if (inval_uitlb)
            core.uitlb().invalidate();
        if (remote)
            core.takeIpi(config_.ipiCycles);
    });
}

TranslationEdit::TranslationEdit(Kernel &kernel, Addr vbase, Addr bytes,
                                 bool inval_uitlb)
    : MappingEdit(kernel.observer_), kernel_(&kernel), vbase_(vbase),
      bytes_(bytes), invalUitlb_(inval_uitlb),
      exceptions_(std::uncaught_exceptions())
{}

TranslationEdit::TranslationEdit(Kernel &kernel, ShadowFault fault)
    : TranslationEdit(kernel, pageBase(fault.vaddr), 0, false)
{
    notify(&KernelObserver::onShadowFault, fault.vaddr);
}

TranslationEdit::TranslationEdit(Kernel &kernel, SwapOut swap)
    : TranslationEdit(kernel, swap.vbase, 0, false)
{
    notify(&KernelObserver::onSwapOut, swap.vbase, swap.pagewise);
}

TranslationEdit::~TranslationEdit() noexcept(false)
{
    if (kernel_ && std::uncaught_exceptions() == exceptions_)
        kernel_->invalidateTranslation(vbase_, bytes_, invalUitlb_);
}

Cycles
Kernel::kernelAccess(Addr paddr, bool write, Cycles now)
{
    // Kernel structures are identity mapped through the pinned block
    // TLB entry (§3.2), so kernel loads/stores pay cache/memory time
    // but never TLB-miss time.
    return cache_.access(paddr, paddr, write, now).latency;
}

Cycles
Kernel::zeroFill(Addr pfn, Cycles now)
{
    ++zeroFilledPages_;
    // Fresh frames are zeroed with non-allocating block stores that
    // stream straight to DRAM over the bus: zeroing a 4 KB page (or
    // a freshly granted multi-megabyte sbrk chunk) must not displace
    // the contents of the 512 KB cache.
    Cycles cycles = 0;
    const Addr frame_base = pfn << basePageShift;
    const unsigned lines = basePageSize >> cacheLineShift;
    for (unsigned i = 0; i < lines; ++i) {
        cycles += config_.zeroFillPerLineCycles;
        cycles += memsys_.writeBack(
            frame_base + (static_cast<Addr>(i) << cacheLineShift),
            now + cycles);
    }
    return cycles;
}

Cycles
Kernel::materialisePage(Addr vaddr, Cycles now)
{
    const Addr pfn = frames_.allocate();
    MappingEdit edit(observer_);
    space().installFrame(vaddr, pfn, edit);
    Cycles cycles = zeroFill(pfn, now);
    // Install the PTE in the two-level page table.
    cycles += kernelAccess(space().l2EntryAddr(vaddr), true,
                           now + cycles);

    // §4 all-shadow operation: the CPU never sees real addresses;
    // every fresh page is published through a single shadow page.
    // Pages materialised inside remap() skip this: the superpage
    // being built will map them in a moment.
    if (config_.allShadowMode && shadowAlloc_ && !inRemap_ &&
        memsys_.mmc().hasMtlb() &&
        space().findSuperpage(vaddr) == nullptr) {
        if (auto page = pagePool().allocate()) {
            // The page was zeroed through non-allocating stores and
            // was never mapped, so there is nothing to flush.
            cycles += mapPageToShadow(pageBase(vaddr), *page,
                                      now + cycles, true);
            ++allShadowPages_;
        } else {
            warn("shadow space exhausted; page stays real-mapped");
        }
    }
    return cycles;
}

ShadowPagePool &
Kernel::pagePool()
{
    panicIf(!shadowAlloc_, "no shadow space for a page pool");
    if (!pagePool_) {
        const unsigned colors = static_cast<unsigned>(
            cache_.config().sizeBytes >> basePageShift);
        pagePool_ =
            std::make_unique<ShadowPagePool>(*shadowAlloc_, colors);
    }
    return *pagePool_;
}

Cycles
Kernel::mapPageToShadow(Addr vbase, Addr shadow_page, Cycles now,
                        bool fresh)
{
    const Addr pfn = space().frameOf(vbase);
    const Addr spi = physMap_.shadowPageIndex(shadow_page);

    Cycles cycles;
    {
        TranslationEdit edit(*this, vbase, basePageSize, false);
        cycles = memsys_.controlOp(now, [&](Mmc &mmc) {
            return mmc.setShadowMapping(spi, pfn, edit);
        });

        // The page's cached lines carry real-address tags (and, in a
        // physically indexed cache, real-address indices); flush
        // before the mapping switches. Freshly zeroed pages were
        // never mapped and have nothing cached.
        if (!fresh) {
            cycles += cache_.flushPage(vbase, pfn << basePageShift,
                                       now + cycles);
        }

        const VmRegion *region = space().findRegion(vbase);
        panicIf(region == nullptr, "shadow-mapping an unmapped page");
        cycles += rewriteHptEntry(
            vbase, {vbase, shadow_page, 0, region->prot}, now + cycles);
    }
    MappingEdit record(observer_);
    space().addSuperpage({vbase, shadow_page, 0}, record);
    return cycles;
}

Cycles
Kernel::demoteSingleShadowPage(Addr vaddr, Cycles now)
{
    const ShadowSuperpage *sp = space().findSuperpage(vaddr);
    panicIf(sp == nullptr || sp->sizeClass != 0,
            "not a single-page shadow mapping");
    const Addr vbase = sp->vbase;
    const Addr shadow_page = sp->shadowBase;
    const Addr spi = physMap_.shadowPageIndex(shadow_page);
    const VmRegion *region = space().findRegion(vbase);

    // Flush shadow-tagged lines, retire the mapping, and republish
    // the page at its real address.
    Cycles cycles = cache_.flushPage(vbase, shadow_page, now);
    {
        TranslationEdit edit(*this, vbase, basePageSize, false);
        cycles += memsys_.controlOp(now + cycles, [&](Mmc &mmc) {
            return mmc.clearShadowMapping(spi, edit);
        });
        cycles += rewriteHptEntry(
            vbase,
            {vbase, space().frameOf(vbase) << basePageShift, 0,
             region->prot},
            now + cycles);
    }
    pagePool().free(shadow_page);
    MappingEdit record(observer_);
    space().removeSuperpage(vbase, record);
    return cycles;
}

Cycles
Kernel::recolorPage(Addr vaddr, unsigned color, Cycles now)
{
    fatalIf(!shadowAlloc_ || !memsys_.mmc().hasMtlb(),
            "recoloring requires shadow memory and an MTLB");
    fatalIf(!space().isPagePresent(vaddr),
            "recoloring an absent page");

    Cycles cycles = config_.syscallOverheadCycles;
    const Addr vbase = pageBase(vaddr);

    // Already shadow-mapped? Retire the old single-page mapping
    // first (recoloring a page inside a genuine superpage is not
    // supported — the superpage's layout is fixed).
    if (const ShadowSuperpage *sp = space().findSuperpage(vbase)) {
        fatalIf(sp->sizeClass != 0,
                "cannot recolor inside a multi-page superpage");
        cycles += demoteSingleShadowPage(vbase, now + cycles);
    }

    auto page = pagePool().allocateColored(color);
    fatalIf(!page, "shadow space exhausted; cannot recolor");
    cycles += mapPageToShadow(vbase, *page, now + cycles);
    ++recoloredPages_;
    return cycles;
}

unsigned
Kernel::colorOf(Addr vaddr)
{
    const unsigned colors = static_cast<unsigned>(
        cache_.config().sizeBytes >> basePageShift);
    Addr paddr;
    if (const ShadowSuperpage *sp = space().findSuperpage(vaddr)) {
        paddr = sp->shadowBase | (vaddr - sp->vbase);
    } else {
        paddr = (space().frameOf(vaddr) << basePageShift) |
                pageOffset(vaddr);
    }
    return static_cast<unsigned>(paddr >> basePageShift) &
           (colors - 1);
}

Cycles
Kernel::chargeHptTouches(const std::vector<Addr> &addrs, bool write,
                         Cycles now)
{
    Cycles cycles = 0;
    for (const Addr a : addrs) {
        cycles += config_.perProbeCycles;
        cycles += kernelAccess(a, write, now + cycles);
    }
    return cycles;
}

Cycles
Kernel::rewriteHptEntry(Addr vbase, const VmMapping &mapping, Cycles now)
{
    hptTouches_.clear();
    hpt_.remove(vbase, 0, asid(), hptTouches_);
    hpt_.insert(mapping, asid(), hptTouches_);
    return chargeHptTouches(hptTouches_, true, now);
}

VmMapping
Kernel::mappingFor(Addr vaddr) const
{
    const VmRegion *region = space().findRegion(vaddr);
    panicIf(region == nullptr,
            "mappingFor on unmapped address 0x", std::hex, vaddr);

    if (const ShadowSuperpage *sp = space().findSuperpage(vaddr)) {
        return {sp->vbase, sp->shadowBase, sp->sizeClass, region->prot};
    }
    return {pageBase(vaddr), space().frameOf(vaddr) << basePageShift, 0,
            region->prot};
}

TlbMissResult
Kernel::handleTlbMiss(Addr vaddr, AccessType type, Cycles now)
{
    (void)type;
    Cycles cycles = config_.trapEntryCycles;

    // Probe the hashed page table; every entry examined is a real
    // cached load.
    std::optional<VmMapping> mapping =
        hpt_.lookup(vaddr, asid(), hptTouches_);
    cycles += chargeHptTouches(hptTouches_, false, now + cycles);

    // Cycles spent in the VM fault path (page-table walk + demand
    // zero). These are kernel time but *not* TLB-miss-handling time
    // in the Figure 3 sense — a conventional page fault costs the
    // same on any system.
    Cycles fault_cycles = 0;

    if (!mapping) {
        ++vmFaults_;
        fault_cycles += config_.vmFaultOverheadCycles;
        fault_cycles += kernelAccess(space().l1EntryAddr(vaddr), false,
                                     now + cycles + fault_cycles);
        fault_cycles += kernelAccess(space().l2EntryAddr(vaddr), false,
                                     now + cycles + fault_cycles);

        const VmRegion *region = space().findRegion(vaddr);
        fatalIf(region == nullptr,
                "segmentation fault: access to 0x", std::hex, vaddr);

        panicIf(space().findSuperpage(vaddr) != nullptr,
                "superpage lost its HPT entry");

        if (!space().isPagePresent(vaddr))
            fault_cycles += materialisePage(vaddr,
                                            now + cycles + fault_cycles);

        mapping = mappingFor(vaddr);
        hptTouches_.clear();
        hpt_.insert(*mapping, asid(), hptTouches_);
        fault_cycles += chargeHptTouches(hptTouches_, true,
                                         now + cycles + fault_cycles);
        vmFaultCycles_ += fault_cycles;
    }

    cycles += config_.tlbInsertCycles + config_.trapExitCycles;

    // Online promotion (§5): charge this miss against the candidate
    // chunk; when the accumulated handler time would have paid for a
    // promotion, remap the chunk now. The promotion changes the
    // mapping, so it runs before the TLB insert.
    Cycles promo_cycles = 0;
    if (config_.onlinePromotion && mapping->sizeClass == 0) {
        promo_cycles = notePromotionCandidate(vaddr, cycles,
                                              now + cycles +
                                                  fault_cycles);
        if (promo_cycles > 0)
            mapping = mappingFor(vaddr);
    }

    const VmMapping &m = *mapping;
    const unsigned slot =
        activeTlb().insert(m.vbase, m.pbase, m.sizeClass, m.prot);

    tlbMissCycles_ += cycles;
    return {cycles + fault_cycles + promo_cycles, slot};
}

Cycles
Kernel::notePromotionCandidate(Addr vaddr, Cycles handler_cycles,
                               Cycles now)
{
    if (!shadowAlloc_ || !memsys_.mmc().hasMtlb())
        return 0;

    const Addr chunk_bytes =
        pageSizeForClass(config_.promotionChunkClass);
    const Addr chunk = vaddr & ~(chunk_bytes - 1);

    // Only whole chunks inside one region are candidates.
    const VmRegion *region = space().findRegion(chunk);
    if (region == nullptr || region->end() < chunk + chunk_bytes)
        return 0;

    Cycles &credit = proc().promotionCredit[chunk];
    credit += handler_cycles;
    if (credit < config_.promotionThresholdCycles)
        return 0;

    proc().promotionCredit.erase(chunk);
    debugPrintf(debug::Flag::Kernel, "promoting chunk 0x", std::hex,
                chunk);
    return remapRange(chunk, chunk_bytes, now, true);
}

namespace
{

/** Largest superpage class that is aligned at @p cursor and fits
 *  before @p end; 0 when not even a 16 KB superpage fits. */
unsigned
maximalClassAt(Addr cursor, Addr end)
{
    for (unsigned c = maxShadowSizeClass; c >= minShadowSizeClass; --c) {
        const Addr size = pageSizeForClass(c);
        if ((cursor & (size - 1)) == 0 && cursor + size <= end)
            return c;
    }
    return 0;
}

} // namespace

Cycles
Kernel::remap(Addr vbase, Addr bytes, Cycles now)
{
    ++remapCalls_;
    return remapRange(vbase, bytes, now, false);
}

Cycles
Kernel::remapRange(Addr vbase, Addr bytes, Cycles now, bool internal)
{
    Cycles cycles = config_.syscallOverheadCycles;

    if (!shadowAlloc_ || !memsys_.mmc().hasMtlb() ||
        (!internal && !config_.honorExplicitRemap)) {
        // Advisory call on a system without shadow support.
        remapCycles_ += cycles;
        return cycles;
    }

    const Addr end = vbase + bytes;
    // Skip any sub-16 KB head; it stays base-paged (§2.4).
    Addr cursor = roundUp(vbase, pageSizeForClass(minShadowSizeClass));

    const AddrRange &shadow = physMap_.shadowRange();

    while (true) {
        // Skip genuine superpages (idempotent remap). Single-page
        // shadow mappings from all-shadow mode or recoloring are
        // demoted page by page below and re-covered by the superpage
        // being built.
        if (const ShadowSuperpage *sp = space().findSuperpage(cursor)) {
            if (sp->sizeClass != 0) {
                cursor = sp->vbase + sp->size();
                continue;
            }
        }

        // A genuine superpage may also start above the cursor but
        // inside the largest chunk that would otherwise fit. A new
        // superpage must never span it: its pages already have live
        // shadow mappings, and installing a second spi for the same
        // frame double-maps it. Cap the chunk at the first such
        // superpage; the skip above steps over it next iteration.
        Addr chunk_end = end;
        for (auto it = space().superpages().upper_bound(cursor);
             it != space().superpages().end() &&
             it->second.vbase < chunk_end;
             ++it) {
            if (it->second.sizeClass != 0) {
                chunk_end = it->second.vbase;
                break;
            }
        }

        unsigned c = maximalClassAt(cursor, chunk_end);
        if (c == 0) {
            if (chunk_end < end) {
                // Blocked before the capped boundary; resume at the
                // existing superpage so the skip above advances past
                // it.
                cursor = chunk_end;
                continue;
            }
            break;
        }

        // Allocate a shadow region, falling back to smaller classes
        // when the preferred bucket is exhausted.
        std::optional<Addr> shadow_base;
        while (c >= minShadowSizeClass) {
            shadow_base = shadowAlloc_->allocate(c);
            if (shadow_base)
                break;
            --c;
        }
        if (!shadow_base) {
            warn("shadow address space exhausted; leaving 0x", std::hex,
                 cursor, "..0x", end, " base-paged");
            break;
        }

        cycles += config_.remapPerSuperpageCycles;
        const Addr sp_size = pageSizeForClass(c);
        const Addr n_pages = sp_size >> basePageShift;
        const Addr spi0 = physMap_.shadowPageIndex(*shadow_base);
        (void)shadow;

        const VmRegion *region = space().findRegion(cursor);
        fatalIf(region == nullptr,
                "remap() of unmapped range at 0x", std::hex, cursor);
        fatalIf(region->end() < cursor + sp_size,
                "remap() range crosses a region boundary");

        const VmMapping sp_mapping{cursor, *shadow_base, c,
                                   region->prot};

        {
            // Closing the edit purges stale TLB and micro-ITLB
            // mappings for the range on every core.
            TranslationEdit edit(*this, cursor, sp_size, true);
            for (Addr i = 0; i < n_pages; ++i) {
                const Addr va = cursor + (i << basePageShift);
                cycles += config_.remapPerPageCycles;

                // Retire any single-page shadow mapping first.
                if (const ShadowSuperpage *single =
                        space().findSuperpage(va);
                    single && single->sizeClass == 0) {
                    cycles += demoteSingleShadowPage(va, now + cycles);
                }

                // Ensure the base page is materialised (the paper's
                // runs remapped regions whose pages were already
                // zero-filled; fresh sbrk chunks are materialised
                // here instead).
                const bool fresh = !space().isPagePresent(va);
                if (fresh) {
                    inRemap_ = true;
                    cycles += materialisePage(va, now + cycles);
                    inRemap_ = false;
                }
                const Addr pfn = space().frameOf(va);

                // Install the shadow->real mapping via an uncached
                // write to the MMC control registers (§2.4).
                cycles += memsys_.controlOp(now + cycles, [&](Mmc &mmc) {
                    return mmc.setShadowMapping(spi0 + i, pfn, edit);
                });

                // Flush every line of the page from the cache: its
                // tags are about to change from real to shadow
                // (§2.3). Pages materialised within this very call
                // were never mapped at any address, so there is
                // nothing to flush for them.
                if (!fresh) {
                    const Cycles flush = cache_.flushPage(
                        va, pfn << basePageShift, now + cycles);
                    cycles += flush;
                    remapFlushCycles_ += flush;
                }

                // Retire the old base-page HPT entry (if any) and
                // write this page's replica of the superpage mapping
                // — the PA-RISC HPT hashes at base-page grain, so a
                // superpage is entered once per base page it covers.
                hptTouches_.clear();
                hpt_.remove(pageBase(va), 0, asid(), hptTouches_);
                hpt_.insertBasePageReplica(sp_mapping, va, asid(),
                                           hptTouches_);
                cycles += chargeHptTouches(hptTouches_, true,
                                           now + cycles);

                cycles += config_.shootdownPerPageCycles;
                ++remapPages_;
            }
        }

        // Publish the superpage mapping.
        debugPrintf(debug::Flag::Kernel, "remap: superpage v=0x",
                    std::hex, cursor, " -> shadow 0x", *shadow_base,
                    std::dec, " class ", c);
        MappingEdit record(observer_);
        space().addSuperpage({cursor, *shadow_base, c}, record);
        ++remapSuperpages_;

        cursor += sp_size;
    }

    remapCycles_ += cycles;
    return cycles;
}

void
Kernel::initHeap(Addr base, Addr max_bytes)
{
    fatalIf(proc().heapBase != 0, "heap already initialised");
    fatalIf(base & (pageSizeForClass(minShadowSizeClass) - 1),
            "heap base should be 16 KB aligned");
    space().addRegion("heap", base, max_bytes, PageProtection{});
    proc().heapBase = base;
    proc().brk = base;
    proc().remapFrontier = base;
}

SbrkResult
Kernel::sbrk(Addr bytes, Cycles now)
{
    ++sbrkCalls_;
    fatalIf(proc().heapBase == 0,
            "sbrk() before setupHeap(): add a 'heap' region and call "
            "initHeap()");

    SbrkResult result;
    result.oldBreak = proc().brk;
    result.cycles = 20;  // libc-level bump allocation

    if (bytes == 0)
        return result;

    const Addr new_brk = proc().brk + bytes;
    const VmRegion *heap = space().findRegionByName("heap");
    fatalIf(new_brk > heap->end(), "heap reservation exhausted");

    if (new_brk > grantedFrontier()) {
        // Grow the granted range by at least the preallocation chunk
        // so subsequent small requests are satisfied without another
        // kernel entry (§2.3).
        result.cycles += config_.syscallOverheadCycles;
        const Addr min_superpage = pageSizeForClass(minShadowSizeClass);
        Addr chunk = roundUp(new_brk - grantedFrontier(), min_superpage);
        if (chunk < proc().sbrkPrealloc)
            chunk = proc().sbrkPrealloc;
        if (grantedFrontier() + chunk > heap->end())
            chunk = heap->end() - grantedFrontier();

        if (shadowAlloc_ && memsys_.mmc().hasMtlb()) {
            result.cycles += remapRange(grantedFrontier(), chunk,
                                        now + result.cycles, false);
        }
        proc().remapFrontier = grantedFrontier() + chunk;
    }

    proc().brk = new_brk;
    return result;
}

Cycles
Kernel::handleShadowPageFault(Addr vaddr, Cycles now)
{
    ++shadowFaults_;
    ++pagesSwappedIn_;
    // Frame reuse + MMC mapping change: the CPU-visible translation
    // is untouched (§2.1), but closing the edit retires the page
    // memos anyway so no memoized state can outlive a frame's
    // identity (epoch only).
    TranslationEdit edit(*this, TranslationEdit::ShadowFault{vaddr});

    const ShadowSuperpage *sp = space().findSuperpage(vaddr);
    panicIf(sp == nullptr,
            "MTLB fault outside any shadow superpage: 0x", std::hex,
            vaddr);

    Cycles cycles = config_.trapEntryCycles +
                    config_.vmFaultOverheadCycles;

    // Read the page back from disk into a fresh frame.
    const Addr pfn = frames_.allocate();
    space().installFrame(vaddr, pfn, edit);
    cycles += config_.diskReadCycles;

    // Reinstall the shadow mapping; the CPU TLB superpage entry was
    // never disturbed (§2.1), so the faulting access simply retries.
    const Addr spi = physMap_.shadowPageIndex(sp->shadowBase) +
                     ((pageBase(vaddr) - sp->vbase) >> basePageShift);
    cycles += memsys_.controlOp(now + cycles, [&](Mmc &mmc) {
        return mmc.setShadowMapping(spi, pfn, edit);
    });

    cycles += config_.trapExitCycles;
    return cycles;
}

SwapOutResult
Kernel::swapOutSuperpagePagewise(Addr vbase, Cycles now)
{
    return swapOutSuperpage(vbase, now, true);
}

SwapOutResult
Kernel::swapOutSuperpageWhole(Addr vbase, Cycles now)
{
    return swapOutSuperpage(vbase, now, false);
}

SwapOutResult
Kernel::swapOutSuperpage(Addr vbase, Cycles now, bool pagewise)
{
    const ShadowSuperpage *sp = space().findSuperpage(vbase);
    fatalIf(sp == nullptr, "no shadow superpage at 0x", std::hex, vbase);
    // The CPU TLB superpage entry and the HPT mapping stay valid:
    // the MMC faults precisely on any access to a swapped base page.
    // The freed frames may be reused, so closing the edit retires
    // every page memo on every core (epoch only).
    TranslationEdit edit(*this,
                         TranslationEdit::SwapOut{sp->vbase, pagewise});

    SwapOutResult result;
    result.cycles = config_.syscallOverheadCycles;

    const Addr spi0 = physMap_.shadowPageIndex(sp->shadowBase);
    for (Addr i = 0; i < sp->numBasePages(); ++i) {
        const Addr va = sp->vbase + (i << basePageShift);
        if (!space().isPagePresent(va))
            continue;  // already swapped out

        // Cleaning flushes all the page's lines from the cache; tags
        // are shadow addresses after remap. The flush must precede
        // the dirty-bit read below: a store that hit a shared-filled
        // line dirties it in the cache without any memory traffic,
        // so its write-back is what carries the modification to the
        // MTLB — reading first would see a stale clean bit and lose
        // the page's data.
        result.cycles += cache_.flushPage(
            va, sp->shadowBase + (i << basePageShift),
            now + result.cycles);

        // Pagewise, read the per-base-page dirty bit the MTLB
        // maintains, and only dirty base pages travel to disk — the
        // payoff of per-base-page dirty bits. A conventional
        // superpage has a single dirty bit for the whole superpage,
        // so every base page must be written (§2.5).
        bool dirty = true;
        if (pagewise) {
            result.cycles += memsys_.controlOp(
                now + result.cycles, [&](Mmc &mmc) {
                    dirty = mmc.readShadowEntry(spi0 + i).modified;
                    return Cycles{8};
                });
        }
        if (dirty) {
            result.cycles += config_.diskQueueCycles;
            ++result.pagesWritten;
            ++pagesSwappedOut_;
        } else {
            ++result.pagesClean;
        }

        result.cycles += memsys_.controlOp(
            now + result.cycles, [&](Mmc &mmc) {
                return mmc.invalidateShadowMapping(spi0 + i, edit);
            });

        frames_.free(space().removeFrame(va, edit), edit);
    }
    return result;
}

} // namespace mtlbsim
