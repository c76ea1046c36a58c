/**
 * @file
 * Fault-injection harness for exercising the invariant auditor.
 *
 * Each mutator plants one specific class of corruption by writing a
 * component's state directly — bypassing the kernel paths that would
 * normally keep the structures coherent — so tests can assert that
 * the TranslationAuditor detects exactly that corruption class.
 *
 * Test builds only: the header does not compile without
 * MTLBSIM_CHECK_TESTING (tests/ and the fuzzer's self-test define
 * it), so no ordinary program can corrupt state "for testing".
 * Kernel mutators are reached through a detached edit
 * (os/translation_edit.hh), which neither retires translations nor
 * notifies the observer: the corruption stays planted. Header-only:
 * all the state it touches is reachable through public component
 * interfaces, except the HPT's chains, which Hpt opens to it as a
 * friend. Every mutator is static and takes the System it corrupts.
 */

#pragma once

#ifndef MTLBSIM_CHECK_TESTING
#error "check/fault_injector.hh is test-only: define MTLBSIM_CHECK_TESTING"
#endif

#include <vector>

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
    FaultInjector() = delete;

    /**
     * Back a second virtual page with the frame that already backs
     * @p va_src (double-mapped frame). @p va_dst must be inside a
     * declared region and not yet materialised.
     */
    static void
    doubleMapFrame(System &sys, Addr va_src, Addr va_dst)
    {
        AddressSpace &space = sys.kernel().addressSpace();
        TranslationEdit edit = detachedEdit();
        space.installFrame(va_dst, space.frameOf(va_src), edit);
    }

    /**
     * Rewrite the shadow-table PTE at @p spi to name @p real_pfn
     * without purging the MTLB — the retranslation the hardware
     * caches goes stale.
     */
    static void
    staleMtlbEntry(System &sys, Addr spi, Addr real_pfn)
    {
        sys.memsys().mmc().shadowTable().set(spi, real_pfn);
    }

    /**
     * Set the modified bit in the table entry at @p spi behind the
     * MTLB's back: the table claims bits the cached copy has never
     * seen (R/D desynchronisation). @p spi should be resident in the
     * MTLB with a clean modified bit for the corruption to register.
     */
    static void
    desyncDirtyBit(System &sys, Addr spi)
    {
        sys.memsys().mmc().shadowTable().setModified(spi, true);
    }

    /**
     * Install a valid shadow-table mapping at @p spi, an index no
     * recorded superpage covers (leaked shadow mapping).
     */
    static void
    leakShadowMapping(System &sys, Addr spi, Addr real_pfn)
    {
        sys.memsys().mmc().shadowTable().set(spi, real_pfn);
    }

    /** Allocate a frame and drop it on the floor (leaked frame). */
    static Addr
    leakFrame(System &sys)
    {
        return sys.kernel().frames().allocate();
    }

    /**
     * Insert a base-page TLB entry mapping @p vbase to @p pbase,
     * bypassing the OS records (stale/forged TLB entry).
     */
    static void
    staleTlbEntry(System &sys, Addr vbase, Addr pbase)
    {
        sys.tlb().insert(pageBase(vbase), pageBase(pbase), 0,
                         PageProtection{});
    }

    /**
     * Corrupt core 0's live page-memo entry covering @p va so it names
     * the wrong frame, as a missed epoch bump would (stale memo
     * entry). @p va must currently hit in the memo.
     */
    static void
    staleMemoEntry(System &sys, Addr va)
    {
        PageMemo &memo = sys.tlb().memo();
        panicIf(!memo.live(va, sys.tlb().translationEpoch()),
                "no live memo entry to corrupt at 0x", std::hex, va);
        // Point the entry at the wrong frame.
        memo.slot(va >> basePageShift).pframeBase ^= basePageSize;
    }

    /**
     * Rebind the OS record for the present page at @p va to a
     * freshly allocated frame without telling the HPT, TLB, or
     * shadow table — the old frame is orphaned and every cached
     * translation names it (rebound frame).
     */
    static void
    rebindFrame(System &sys, Addr va)
    {
        AddressSpace &space = sys.kernel().addressSpace();
        TranslationEdit edit = detachedEdit();
        space.removeFrame(va, edit);
        space.installFrame(va, sys.kernel().frames().allocate(), edit);
    }

    /**
     * Drop the HPT entry for the present base page at @p va: the
     * page is still materialised but the miss handler can no longer
     * reach it (lost HPT entry).
     */
    static void
    dropHptEntry(System &sys, Addr va)
    {
        std::vector<Addr> touched;
        sys.kernel().hpt().remove(pageBase(va), 0, 0, touched);
    }

    /**
     * Append a second HPT entry for the base page at @p va, a copy of
     * the one it already has (duplicated HPT entry).
     */
    static void
    duplicateHptEntry(System &sys, Addr va)
    {
        Hpt &hpt = sys.kernel().hpt();
        const Addr key = Hpt::keyFor(pageFrame(va), 0);
        const unsigned b = hpt.bucketOf(key);
        unsigned found = Hpt::noEntry, tail = Hpt::noEntry;
        for (unsigned i = hpt.heads_[b]; i != Hpt::noEntry;
             i = hpt.pool_[i].next) {
            if (hpt.pool_[i].key == key && found == Hpt::noEntry)
                found = i;
            tail = i;
        }
        panicIf(found == Hpt::noEntry, "no HPT entry to duplicate at 0x",
                std::hex, va);
        const VmMapping mapping = hpt.pool_[found].mapping;
        hpt.append(b, tail,
                   hpt.newEntry(key, mapping, hpt.allocOverflowEntry()));
    }

    /**
     * Drop the one HPT replica that maps the base page at @p va of a
     * shadow superpage; the superpage's other replicas stay (lost
     * replica).
     */
    static void
    dropHptReplica(System &sys, Addr va)
    {
        const ShadowSuperpage *sp =
            sys.kernel().addressSpace().findSuperpage(va);
        panicIf(sp == nullptr, "no superpage at 0x", std::hex, va);
        std::vector<Addr> touched;
        sys.kernel().hpt().removeOne(Hpt::keyFor(pageFrame(va), 0),
                                     sp->sizeClass, touched);
    }

    /**
     * Lose the dirty bit for the shadow page at @p spi: sync the
     * MTLB's pending bits into the table, then clear the table's
     * modified bit. The auditor cannot see this (the table is its
     * ground truth); only a differential check against an
     * independent reference model — the fuzzer's oracle — catches
     * the clean-page misclassification at swap-out.
     */
    static void
    clearDirtyBit(System &sys, Addr spi)
    {
        sys.memsys().mmc().mtlb().purge(spi);
        sys.memsys().mmc().shadowTable().setModified(spi, false);
    }

    /**
     * Feed one shadow-region address straight to the DRAM model, as
     * a buggy MMC that skipped MTLB translation would (shadow escape).
     */
    static void
    leakShadowAddressToDram(System &sys)
    {
        const AddrRange &shadow = sys.physmap().shadowRange();
        panicIf(shadow.size == 0, "machine has no shadow region");
        sys.memsys().mmc().dram().access(shadow.base, true);
    }
};

} // namespace mtlbsim
