/**
 * @file
 * CLOCK page-replacement daemon over MTLB reference bits.
 *
 * §2.5 of the paper notes that the MTLB's per-base-page *referenced*
 * information is only approximate: the MMC sees cache-fill requests,
 * so a page whose hot lines stay resident in the cache generates no
 * fills and "will appear to be unreferenced even though it might be
 * quite active. This could reduce the effectiveness of CLOCK and
 * similar page replacement strategies. Evaluation of the efficacy of
 * this detailed reference information is beyond the scope of this
 * paper." — this daemon (plus the `clock` sweep matrix) is that
 * evaluation.
 *
 * The daemon keeps a circular list of watched shadow-backed base
 * pages. One sweep advances CLOCK's hand over every watched page:
 * pages whose referenced bit is clear are reported as idle
 * (candidates for eviction); every page's bit is then cleared for
 * the next interval. Reads and clears go through the MMC's uncached
 * control-register interface, and their cycle costs are returned so
 * callers can charge the daemon's work to the simulated clock.
 */

#pragma once

#include <vector>

#include "base/logging.hh"
#include "mmc/memsys.hh"
#include "os/address_space.hh"

namespace mtlbsim
{

/**
 * CLOCK sweeps over MTLB-maintained reference bits.
 */
class ClockDaemon
{
  public:
    /**
     * @param space  the address space whose pages are watched
     * @param memsys the memory system carrying the MMC control path
     * @param map    the physical map (for shadow page indices)
     */
    ClockDaemon(AddressSpace &space, MemorySystem &memsys,
                const PhysMap &map)
        : space_(space), memsys_(memsys), map_(map)
    {}

    /**
     * Watch every base page of the shadow superpage at @p vbase.
     * Pages must be shadow-backed (their reference bits live in the
     * MTLB/shadow table).
     */
    void
    watch(Addr vbase)
    {
        const ShadowSuperpage *sp = space_.findSuperpage(vbase);
        fatalIf(sp == nullptr, "no shadow superpage at 0x", std::hex,
                vbase);
        for (Addr i = 0; i < sp->numBasePages(); ++i) {
            watched_.push_back(
                {sp->vbase + (i << basePageShift),
                 map_.shadowPageIndex(sp->shadowBase) + i});
        }
    }

    /** Result of one CLOCK sweep. */
    struct SweepResult
    {
        /** Watched pages whose referenced bit was clear. */
        std::vector<Addr> idle;
        /** CPU cycles the sweep consumed (control-register I/O). */
        Cycles cycles = 0;
    };

    /**
     * Advance the hand over all watched pages: report unreferenced
     * pages and reset every referenced bit for the next interval.
     */
    SweepResult
    sweep(Cycles now)
    {
        SweepResult result;
        for (const auto &page : watched_) {
            if (!space_.isPagePresent(page.vaddr))
                continue;   // already swapped out
            ShadowPte pte{};
            result.cycles += memsys_.controlOp(
                now + result.cycles, [&](Mmc &mmc) {
                    pte = mmc.readShadowEntry(page.spi);
                    return Cycles{4};
                });
            if (!pte.referenced)
                result.idle.push_back(page.vaddr);
            result.cycles += memsys_.controlOp(
                now + result.cycles, [&](Mmc &mmc) {
                    return mmc.clearReferencedBit(page.spi);
                });
        }
        return result;
    }

    std::size_t numWatched() const { return watched_.size(); }

  private:
    struct WatchedPage
    {
        Addr vaddr;
        Addr spi;
    };

    AddressSpace &space_;
    MemorySystem &memsys_;
    const PhysMap &map_;
    std::vector<WatchedPage> watched_;
};

} // namespace mtlbsim
