/**
 * @file
 * Fault-injection harness for exercising the invariant auditor.
 *
 * Each mutator plants one specific class of corruption by writing a
 * component's state directly — bypassing the kernel paths that would
 * normally keep the structures coherent — so tests can assert that
 * the TranslationAuditor detects exactly that corruption class.
 *
 * The mutators are compiled only when MTLBSIM_CHECK_TESTING is
 * defined (tests/ builds with it); in ordinary builds every call
 * panics, so no production code path can corrupt state "for
 * testing". Kernel mutators are reached through a detached edit
 * (os/translation_edit.hh), which neither retires translations nor
 * notifies the observer: the corruption stays planted. Header-only:
 * all the state it touches is reachable through public component
 * interfaces, except the HPT's chains, which Hpt opens to it as a
 * friend.
 */

#ifndef MTLBSIM_CHECK_FAULT_INJECTOR_HH
#define MTLBSIM_CHECK_FAULT_INJECTOR_HH

#include "base/logging.hh"
#include "sim/system.hh"

namespace mtlbsim
{

/**
 * Plants targeted corruptions in a System's translation state.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(System &sys) : sys_(sys) {}

    /**
     * Back a second virtual page with the frame that already backs
     * @p va_src (double-mapped frame). @p va_dst must be inside a
     * declared region and not yet materialised.
     */
    void
    doubleMapFrame(Addr va_src, Addr va_dst)
    {
#ifdef MTLBSIM_CHECK_TESTING
        AddressSpace &space = sys_.kernel().addressSpace();
        TranslationEdit edit = detachedEdit();
        space.installFrame(va_dst, space.frameOf(va_src), edit);
#else
        (void)va_src;
        (void)va_dst;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Rewrite the shadow-table PTE at @p spi to name @p real_pfn
     * without purging the MTLB — the retranslation the hardware
     * caches goes stale.
     */
    void
    staleMtlbEntry(Addr spi, Addr real_pfn)
    {
#ifdef MTLBSIM_CHECK_TESTING
        sys_.memsys().mmc().shadowTable().set(spi, real_pfn);
#else
        (void)spi;
        (void)real_pfn;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Set the modified bit in the table entry at @p spi behind the
     * MTLB's back: the table claims bits the cached copy has never
     * seen (R/D desynchronisation). @p spi should be resident in the
     * MTLB with a clean modified bit for the corruption to register.
     */
    void
    desyncDirtyBit(Addr spi)
    {
#ifdef MTLBSIM_CHECK_TESTING
        sys_.memsys().mmc().shadowTable().entry(spi).modified = 1;
#else
        (void)spi;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Install a valid shadow-table mapping at @p spi, an index no
     * recorded superpage covers (leaked shadow mapping).
     */
    void
    leakShadowMapping(Addr spi, Addr real_pfn)
    {
#ifdef MTLBSIM_CHECK_TESTING
        sys_.memsys().mmc().shadowTable().set(spi, real_pfn);
#else
        (void)spi;
        (void)real_pfn;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /** Allocate a frame and drop it on the floor (leaked frame). */
    Addr
    leakFrame()
    {
#ifdef MTLBSIM_CHECK_TESTING
        return sys_.kernel().frames().allocate();
#else
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Insert a base-page TLB entry mapping @p vbase to @p pbase,
     * bypassing the OS records (stale/forged TLB entry).
     */
    void
    staleTlbEntry(Addr vbase, Addr pbase)
    {
#ifdef MTLBSIM_CHECK_TESTING
        sys_.tlb().insert(pageBase(vbase), pageBase(pbase), 0,
                          PageProtection{});
#else
        (void)vbase;
        (void)pbase;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Corrupt core 0's live page-memo entry covering @p va so it names
     * the wrong frame, as a missed epoch bump would (stale memo
     * entry). @p va must currently hit in the memo.
     */
    void
    staleMemoEntry(Addr va)
    {
#ifdef MTLBSIM_CHECK_TESTING
        PageMemo &memo = sys_.tlb().memo();
        panicIf(!memo.live(va, sys_.tlb().translationEpoch()),
                "no live memo entry to corrupt at 0x", std::hex, va);
        // Point the entry at the wrong frame.
        memo.slot(va >> basePageShift).pframeBase ^= basePageSize;
#else
        (void)va;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Rebind the OS record for the present page at @p va to a
     * freshly allocated frame without telling the HPT, TLB, or
     * shadow table — the old frame is orphaned and every cached
     * translation names it (rebound frame).
     */
    void
    rebindFrame(Addr va)
    {
#ifdef MTLBSIM_CHECK_TESTING
        AddressSpace &space = sys_.kernel().addressSpace();
        TranslationEdit edit = detachedEdit();
        space.removeFrame(va, edit);
        space.installFrame(va, sys_.kernel().frames().allocate(), edit);
#else
        (void)va;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Drop the HPT entry for the present base page at @p va: the
     * page is still materialised but the miss handler can no longer
     * reach it (lost HPT entry).
     */
    void
    dropHptEntry(Addr va)
    {
#ifdef MTLBSIM_CHECK_TESTING
        sys_.kernel().hpt().remove(pageBase(va), 0);
#else
        (void)va;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Append a second HPT entry for the base page at @p va, a copy of
     * the one it already has (duplicated HPT entry).
     */
    void
    duplicateHptEntry(Addr va)
    {
#ifdef MTLBSIM_CHECK_TESTING
        Hpt &hpt = sys_.kernel().hpt();
        const Addr key = Hpt::keyFor(pageFrame(va), 0);
        auto &chain = hpt.chains_[hpt.bucketOf(key)];
        for (std::size_t i = 0; i < chain.size(); ++i) {
            if (chain[i].vpn == key) {
                Hpt::ChainedEntry copy = chain[i];
                copy.entryAddr = hpt.allocOverflowEntry();
                chain.push_back(copy);
                ++hpt.liveEntries_;
                return;
            }
        }
        panic("no HPT entry to duplicate at 0x", std::hex, va);
#else
        (void)va;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Drop the one HPT replica that maps the base page at @p va of a
     * shadow superpage; the superpage's other replicas stay (lost
     * replica).
     */
    void
    dropHptReplica(Addr va)
    {
#ifdef MTLBSIM_CHECK_TESTING
        const ShadowSuperpage *sp =
            sys_.kernel().addressSpace().findSuperpage(va);
        panicIf(sp == nullptr, "no superpage at 0x", std::hex, va);
        sys_.kernel().hpt().removeOne(Hpt::keyFor(pageFrame(va), 0),
                                      sp->sizeClass);
#else
        (void)va;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Lose the dirty bit for the shadow page at @p spi: sync the
     * MTLB's pending bits into the table, then clear the table's
     * modified bit. The auditor cannot see this (the table is its
     * ground truth); only a differential check against an
     * independent reference model — the fuzzer's oracle — catches
     * the clean-page misclassification at swap-out.
     */
    void
    clearDirtyBit(Addr spi)
    {
#ifdef MTLBSIM_CHECK_TESTING
        sys_.memsys().mmc().mtlb().purge(spi);
        sys_.memsys().mmc().shadowTable().entry(spi).modified = 0;
#else
        (void)spi;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

    /**
     * Feed one shadow-region address straight to the DRAM model, as
     * a buggy MMC that skipped MTLB translation would (shadow escape).
     */
    void
    leakShadowAddressToDram()
    {
#ifdef MTLBSIM_CHECK_TESTING
        const AddrRange &shadow = sys_.physmap().shadowRange();
        panicIf(shadow.size == 0, "machine has no shadow region");
        sys_.memsys().mmc().dram().access(shadow.base, true);
#else
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

  private:
    // Test-only harness: borrows the System for the duration of one
    // injection campaign and never outlives the test that owns both.
    System &sys_;   // mtlb-lint: allow(R7)
};

} // namespace mtlbsim

#endif // MTLBSIM_CHECK_FAULT_INJECTOR_HH
