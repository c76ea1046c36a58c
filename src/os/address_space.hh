/**
 * @file
 * Per-process virtual address space.
 *
 * Tracks VM regions (text, data, heap, ...), the base pages that have
 * been materialised with real frames, and the shadow-backed
 * superpages created by remap(). The present pages live in a
 * two-level radix table: 1024-entry leaf nodes, each with a presence
 * mask, under a root indexed by vpn >> 10. The page-table walk model
 * gives the same shape concrete node addresses in kernel memory, so
 * that walks on HPT misses generate realistic memory traffic.
 */

#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/bitset.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "os/hpt.hh"
#include "os/translation_edit.hh"
#include "tlb/tlb.hh"

namespace mtlbsim
{

/** A contiguous region of user virtual address space. */
struct VmRegion
{
    std::string name;
    Addr base = 0;
    Addr size = 0;
    PageProtection prot;

    bool
    contains(Addr a) const
    {
        return a >= base && a - base < size;
    }

    Addr end() const { return base + size; }
};

/** A shadow-backed superpage created by remap() (§2.4). */
struct ShadowSuperpage
{
    Addr vbase = 0;         ///< virtual base, aligned to size
    Addr shadowBase = 0;    ///< shadow physical base, aligned to size
    unsigned sizeClass = 0;

    Addr size() const { return pageSizeForClass(sizeClass); }
    Addr numBasePages() const { return size() >> basePageShift; }

    bool
    covers(Addr vaddr) const
    {
        return vaddr >= vbase && vaddr - vbase < size();
    }
};

/**
 * One process's virtual address space.
 */
class AddressSpace
{
  public:
    /**
     * @param pt_pool_base kernel physical base of this process's
     *                     page-table node pool
     * @param pool_bytes   pool capacity; 0 means unbounded. Bounded
     *                     pools let many processes pack their tables
     *                     into one kernel region without colliding.
     */
    explicit AddressSpace(Addr pt_pool_base, Addr pool_bytes = 0);

    /** Declare a region. Regions must not overlap. */
    void addRegion(const std::string &name, Addr base, Addr size,
                   PageProtection prot);

    /** The region covering @p vaddr, or null. */
    const VmRegion *findRegion(Addr vaddr) const;

    const VmRegion *findRegionByName(const std::string &name) const;

    /** All declared regions, in declaration order. */
    const std::vector<VmRegion> &regions() const { return regions_; }

    /** Is this base page materialised with a real frame? */
    bool isPagePresent(Addr vaddr) const;

    /** PFN backing the base page at @p vaddr (page must be present). */
    Addr frameOf(Addr vaddr) const;

    /** @name Mutators
     *  Each fires its KernelObserver hook through @p edit. */
    /** @{ */

    /** Record that @p vaddr's base page is backed by frame @p pfn
     *  (onPageMapped). The page had no translation, so a hooks-only
     *  edit suffices. */
    void installFrame(Addr vaddr, Addr pfn, MappingEdit &edit);

    /** Remove the frame backing @p vaddr's page; returns the PFN
     *  (onPageUnmapped). */
    Addr removeFrame(Addr vaddr, TranslationEdit &edit);

    /** Record a shadow-backed superpage (onSuperpageCreated). */
    void addSuperpage(const ShadowSuperpage &sp, MappingEdit &edit);

    /** Remove a superpage record (onSuperpageDemoted). */
    void removeSuperpage(Addr vbase, MappingEdit &edit);

    /** @} */

    /** The shadow superpage covering @p vaddr, if any. */
    const ShadowSuperpage *findSuperpage(Addr vaddr) const;

    /** All superpages, ordered by virtual base. */
    const std::map<Addr, ShadowSuperpage> &superpages() const
    {
        return superpages_;
    }

    /** Number of materialised base pages. */
    std::size_t numPresentPages() const { return numPresent_; }

    /** Call @p fn(vpn, pfn) for every materialised base page, in vpn
     *  order, in time proportional to the present pages plus one word
     *  test per 64 slots of each leaf node. */
    template <typename Fn>
    void
    forEachPresentPage(Fn &&fn) const
    {
        const auto visit = [&fn](Addr l1, const PageNode &node) {
            node.present.forEachSet([&](std::size_t slot) {
                fn((l1 << nodeShift) | slot, node.pfn[slot]);
            });
        };
        for (Addr l1 = 0; l1 < lowNodes_.size(); ++l1) {
            if (lowNodes_[l1])
                visit(l1, *lowNodes_[l1]);
        }
        for (const auto &[l1, node] : highNodes_)
            visit(l1, *node);
    }

    /**
     * @name Page-table walk address modelling
     * Two-level radix table over a 32-bit space: the L1 node holds
     * 1024 4-byte entries indexed by vpn[19:10]; each L2 node holds
     * 1024 entries indexed by vpn[9:0]. Both reads of a walk hit
     * these addresses in kernel memory.
     * @{
     */
    Addr l1EntryAddr(Addr vaddr) const;
    Addr l2EntryAddr(Addr vaddr);
    /** @} */

  private:
    /** One leaf of the present-page table: vpn[9:0] -> pfn, in
     *  4-byte entries like the modelled L2 node's. */
    struct PageNode
    {
        static constexpr std::size_t slots = 1024;
        Bitset present{slots};
        std::array<std::uint32_t, slots> pfn{};
    };
    static constexpr unsigned nodeShift = 10;

    /** The leaf covering @p vpn, or null. */
    const PageNode *findNode(Addr vpn) const;
    /** The leaf covering @p vpn, created empty when missing. */
    PageNode &nodeFor(Addr vpn);

    std::vector<VmRegion> regions_;
    /** Leaves of the 32-bit space, indexed by vpn >> 10 (O(1)); the
     *  rare leaves above it are kept in order by the same index. */
    std::array<std::unique_ptr<PageNode>, 1024> lowNodes_;
    std::map<Addr, std::unique_ptr<PageNode>> highNodes_;
    std::size_t numPresent_ = 0;
    std::map<Addr, ShadowSuperpage> superpages_;

    Addr ptPoolBase_;
    Addr ptPoolBytes_;  ///< 0 = unbounded
    Addr ptPoolCursor_;
    std::map<Addr, Addr> l2Nodes_;  ///< l1 index -> node addr
};

} // namespace mtlbsim
