/**
 * @file
 * Kernel edits of translation state, as types.
 *
 * The paper's remap() is a fixed sequence (§2.3–2.4): change the
 * mapping below the TLB, then purge every cached translation of the
 * range. The kernel also announces each mapping change to an
 * observer (the differential fuzzer's oracle). Both halves are
 * enforced here by construction rather than by a checker:
 *
 *  - every mutator of state below the TLB (Mmc::setShadowMapping,
 *    clearShadowMapping and invalidateShadowMapping,
 *    AddressSpace::removeFrame, FrameAllocator::free) takes a
 *    TranslationEdit, and closing the edit retires the range it was
 *    opened for on every core (Kernel::invalidateTranslation);
 *  - the AddressSpace mutators that change a mapping or a superpage
 *    record fire their KernelObserver hook through the edit they are
 *    handed, so the hook cannot be left out;
 *  - only Kernel can open an edit.
 *
 * Unit tests and the fault injector, which write component state
 * directly, get a detached edit under MTLBSIM_CHECK_TESTING. It
 * neither invalidates nor notifies.
 */

#pragma once

#include "base/types.hh"

namespace mtlbsim
{

class AddressSpace;
class Kernel;

/**
 * Narrow observer interface over the kernel's mapping events.
 *
 * Every mutation of the ground-truth vpage->frame mapping — and of
 * the superpage records layered over it — is announced through one
 * of these callbacks, at the point where the kernel's own records
 * have just been updated. The lockstep differential fuzzer
 * (src/fuzz) maintains its flat reference model from exactly these
 * events; nothing in the kernel reads the observer back, so
 * attaching one cannot perturb simulated behaviour or statistics.
 * Only the edits below call it.
 *
 * Contract (see docs/manual.md §10):
 *  - onPageMapped fires whenever a base page gains a real frame
 *    (demand-zero materialisation and shadow-fault swap-in). The
 *    page's shadow-table R/D bits, if any, are clean afterwards.
 *  - onPageUnmapped fires whenever a base page loses its frame
 *    (both swap-out flavours), after the kernel dropped its record.
 *  - onSuperpageCreated fires after a shadow superpage record is
 *    installed (remap(), all-shadow single-page mappings, and
 *    recoloring; sizeClass 0 denotes a single-page mapping). Every
 *    covered page's shadow PTE was rewritten, so its R/D bits are
 *    clean.
 *  - onSuperpageDemoted fires after a single-page shadow mapping is
 *    retired and the page republished at its real address.
 *  - onShadowFault fires on entry to the precise-MTLB-fault handler,
 *    before the onPageMapped it will cause.
 *  - onSwapOut fires on entry to either swap-out flavour, before
 *    the per-page onPageUnmapped events.
 */
class KernelObserver
{
  public:
    virtual ~KernelObserver() = default;

    virtual void onPageMapped(Addr vbase, Addr pfn)
    {
        (void)vbase;
        (void)pfn;
    }

    virtual void onPageUnmapped(Addr vbase, Addr pfn)
    {
        (void)vbase;
        (void)pfn;
    }

    virtual void
    onSuperpageCreated(Addr vbase, Addr shadow_base, unsigned size_class)
    {
        (void)vbase;
        (void)shadow_base;
        (void)size_class;
    }

    virtual void onSuperpageDemoted(Addr vbase) { (void)vbase; }

    virtual void onShadowFault(Addr vaddr) { (void)vaddr; }

    virtual void onSwapOut(Addr vbase, bool pagewise)
    {
        (void)vbase;
        (void)pagewise;
    }
};

/**
 * A hooks-only edit: proof that the kernel announces the mapping
 * changes made with it. It retires no cached translation, so on its
 * own it suits only changes that leave none stale:
 * AddressSpace::installFrame (the page had no translation) and the
 * superpage records (bookkeeping above the TLB; the TranslationEdit
 * around the MMC change retires what they describe).
 */
class MappingEdit
{
  public:
    MappingEdit(const MappingEdit &) = delete;
    MappingEdit &operator=(const MappingEdit &) = delete;

  private:
    friend class Kernel;
    friend class TranslationEdit;
    /** The AddressSpace mutators fire the hooks. */
    friend class AddressSpace;

    explicit MappingEdit(KernelObserver *observer) : observer_(observer)
    {}

    /** Fire @p hook on the kernel's observer, if one is attached. */
    template <typename... Params, typename... Args>
    void
    notify(void (KernelObserver::*hook)(Params...), Args... args)
    {
        if (observer_)
            (observer_->*hook)(args...);
    }

    KernelObserver *observer_;
};

/**
 * A translation edit: proof that the cached translations of a range
 * are retired after the state below the TLB changes. Its destructor
 * calls Kernel::invalidateTranslation(vbase, bytes, inval_uitlb) for
 * the range it was opened with (bytes == 0: epoch only, for frame
 * reuse below an unchanged CPU-visible translation). An edit
 * abandoned by an exception retires nothing, exactly as the
 * unfinished sequence it stands for. It also carries the hooks of a
 * MappingEdit.
 */
class TranslationEdit : public MappingEdit
{
  public:
    TranslationEdit(const TranslationEdit &) = delete;
    TranslationEdit &operator=(const TranslationEdit &) = delete;
    /** May throw: a failure while retiring (a PanicError from a
     *  core's IPI charge) reaches the kernel entry's caller. It never
     *  throws while unwinding. */
    ~TranslationEdit() noexcept(false);

  private:
    friend class Kernel;
    friend inline TranslationEdit detachedEdit();

    /** The shadow-fault handler's edit: fires onShadowFault(vaddr)
     *  on opening and retires the epoch of every core on closing. */
    struct ShadowFault
    {
        Addr vaddr;
    };

    /** A swap-out's edit: fires onSwapOut(vbase, pagewise) on
     *  opening and retires the epoch of every core on closing. */
    struct SwapOut
    {
        Addr vbase;
        bool pagewise;
    };

    TranslationEdit(Kernel &kernel, Addr vbase, Addr bytes,
                    bool inval_uitlb);
    TranslationEdit(Kernel &kernel, ShadowFault fault);
    TranslationEdit(Kernel &kernel, SwapOut swap);
    /** Detached: no kernel, no observer. */
    TranslationEdit() : MappingEdit(nullptr) {}

    Kernel *kernel_ = nullptr;
    Addr vbase_ = 0;
    Addr bytes_ = 0;
    bool invalUitlb_ = false;
    /** std::uncaught_exceptions() on opening. */
    int exceptions_ = 0;
};

#ifdef MTLBSIM_CHECK_TESTING
/** An edit for code that writes component state directly: unit
 *  tests and the fault injector. It neither invalidates nor
 *  notifies, so planted corruption stays invisible to the kernel's
 *  observer. */
inline TranslationEdit
detachedEdit()
{
    return TranslationEdit();
}
#endif

} // namespace mtlbsim
