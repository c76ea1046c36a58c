/**
 * @file
 * Dependency-free reference model for the differential fuzzer.
 *
 * The paper's claim (§2) is that the two-level translation — CPU TLB
 * vpage->shadow, MTLB shadow->real, with per-base-page R/D bits kept
 * by the MTLB — is behaviourally identical to a flat vpage->real
 * mapping maintained by a conventional OS. OracleMemory *is* that
 * flat mapping: a map from virtual page to real frame plus
 * per-base-page referenced/dirty bits, updated only from the
 * kernel-event stream (KernelObserver) and the program's own
 * accesses. It deliberately knows nothing about shadow addresses,
 * the MTLB, the cache, or timing, so any disagreement between it and
 * the machine localises a translation bug.
 *
 * Only base/types.hh and standard containers are used; the model
 * must stay independent of everything it checks.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/types.hh"

namespace mtlbsim::fuzz
{

/** One declared region of the oracle's address space. */
struct OracleRegion
{
    Addr base = 0;
    Addr size = 0;
    bool writable = true;

    bool
    contains(Addr a) const
    {
        return a >= base && a - base < size;
    }
};

/** One shadow superpage record, mirrored from kernel events. */
struct OracleSuperpage
{
    Addr vbase = 0;
    Addr shadowBase = 0;
    unsigned sizeClass = 0;

    Addr size() const { return basePageSize << (2 * sizeClass); }

    bool
    covers(Addr vaddr) const
    {
        return vaddr >= vbase && vaddr - vbase < size();
    }
};

/**
 * The flat reference model.
 */
class OracleMemory
{
  public:
    /** Declare a region the fuzzed program may touch. */
    void addRegion(Addr base, Addr size, bool writable);

    /** @name Kernel events (fed by the KernelObserver adapter) */
    /** @{ */
    void onPageMapped(Addr vbase, Addr pfn);
    void onPageUnmapped(Addr vbase, Addr pfn);
    void onSuperpageCreated(Addr vbase, Addr shadow_base,
                            unsigned size_class);
    void onSuperpageDemoted(Addr vbase);
    void onShadowFault(Addr vaddr);
    /** @} */

    /** Record one program access (after the machine performed it). */
    void noteAccess(Addr vaddr, bool store);

    /** @name Queries the fuzzer compares the machine against */
    /** @{ */
    bool present(Addr vaddr) const;
    /** Real frame backing @p vaddr, or nullopt when absent. */
    std::optional<Addr> frameOf(Addr vaddr) const;
    const OracleRegion *regionOf(Addr vaddr) const;
    bool referenced(Addr vaddr) const;
    bool dirty(Addr vaddr) const;
    const OracleSuperpage *superpageCovering(Addr vaddr) const;
    const std::map<Addr, OracleSuperpage> &superpages() const
    {
        return superpages_;
    }
    std::size_t numPresentPages() const { return frames_.size(); }

    /** Expected SwapOutResult for a pagewise swap of the superpage
     *  at @p vbase: only present+dirty pages are written. */
    unsigned expectedPagewiseWrites(Addr vbase) const;
    /** Expected writes for a whole-superpage swap: every present
     *  page. */
    unsigned expectedWholeWrites(Addr vbase) const;
    /** @} */

    /** Inconsistencies in the event stream itself (e.g. a page
     *  mapped twice). Empty on a healthy run. */
    const std::vector<std::string> &eventErrors() const
    {
        return eventErrors_;
    }

  private:
    Addr vpn(Addr vaddr) const { return vaddr >> basePageShift; }

    std::vector<OracleRegion> regions_;
    std::map<Addr, Addr> frames_;   ///< vpn -> pfn
    std::set<Addr> referenced_;     ///< vpns
    std::set<Addr> dirty_;          ///< vpns
    std::map<Addr, OracleSuperpage> superpages_;
    std::vector<std::string> eventErrors_;
};

} // namespace mtlbsim::fuzz
