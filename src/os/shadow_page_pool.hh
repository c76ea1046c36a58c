/**
 * @file
 * Single-page shadow address pool.
 *
 * Two of the paper's §4/§6 extensions need *individual* shadow base
 * pages rather than whole superpages:
 *
 *  - no-copy page recoloring (§6): remap one page to a shadow
 *    address whose cache-index ("color") bits are chosen freely;
 *  - all-shadow operation (§4): on machines with no free physical
 *    addresses above DRAM, every page is accessed through shadow
 *    space so the kernel can reclaim the real address map.
 *
 * The pool carves large blocks out of a ShadowAllocator and serves
 * 4 KB pages from them, with an optional color constraint. A page's
 * color is its index bits within a physically indexed cache:
 * color = (addr >> 12) % (cache_size / page_size).
 */

#pragma once

#include <array>
#include <optional>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "os/shadow_alloc.hh"

namespace mtlbsim
{

/**
 * Allocates single shadow base pages, by color when requested.
 */
class ShadowPagePool
{
  public:
    /**
     * @param backing    where to obtain large shadow blocks
     * @param num_colors page colors in the target cache
     *                   (cache bytes / page bytes); must be a power
     *                   of two and at most blockPages
     */
    ShadowPagePool(ShadowAllocator &backing, unsigned num_colors);

    /** Allocate any shadow page. */
    std::optional<Addr> allocate();

    /** Allocate a shadow page of the given color. */
    std::optional<Addr> allocateColored(unsigned color);

    /** Return a page to the pool. */
    void free(Addr page);

    /** Color of an address in the target cache. */
    unsigned
    colorOf(Addr addr) const
    {
        return static_cast<unsigned>(addr >> basePageShift) &
               (numColors_ - 1);
    }

    /** Pages currently free (all colors). */
    std::size_t numFree() const;

  private:
    /** Pull one more block from the backing allocator and carve it;
     *  returns false when shadow space is exhausted. */
    bool refill();

    ShadowAllocator &backing_;
    unsigned numColors_;
    /** Free pages bucketed by color. */
    std::vector<std::vector<Addr>> freeByColor_;

    /** Preferred block class for refills: 1 MB covers every color of
     *  a 512 KB cache twice. refill() falls back to smaller classes
     *  when this one is exhausted. */
    static constexpr unsigned refillClass = 4;
};

} // namespace mtlbsim
