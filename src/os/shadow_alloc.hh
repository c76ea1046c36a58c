/**
 * @file
 * Shadow-address-range allocators (§2.4).
 *
 * Two implementations of the same interface:
 *
 *  - BucketShadowAllocator: the paper's scheme — the shadow region is
 *    statically pre-partitioned into buckets of each legal superpage
 *    size (Figure 2), and allocation pops any region from the
 *    matching bucket. Simple and fast; can run out of one size while
 *    others sit free.
 *
 *  - BuddyShadowAllocator: the buddy-system variant the paper names
 *    as the natural next step — regions split on demand and
 *    recombine on free, so no size can be exhausted while enough
 *    total space remains at coarser granularity.
 *
 * Superpage sizes are the TLB's legal sizes: 16 KB .. 16 MB in
 * powers of 4 (classes 1..6). Class-0 (4 KB) regions are never
 * allocated from shadow space — a lone base page gains nothing from
 * shadow backing.
 */

#pragma once

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "mem/physmap.hh"
#include "tlb/tlb.hh"

namespace mtlbsim
{

/** Smallest and largest shadow superpage size classes. */
constexpr unsigned minShadowSizeClass = 1;  ///< 16 KB
constexpr unsigned maxShadowSizeClass = 6;  ///< 16 MB

/** Interface shared by the bucket and buddy allocators. */
class ShadowAllocator
{
  public:
    virtual ~ShadowAllocator() = default;

    /**
     * Allocate a shadow region of superpage class @p size_class
     * (aligned to its size). Returns nullopt when that size is
     * exhausted.
     */
    virtual std::optional<Addr> allocate(unsigned size_class) = 0;

    /** Return a region allocated earlier. */
    virtual void free(Addr base, unsigned size_class) = 0;

    /** Regions of @p size_class currently available. */
    virtual Addr available(unsigned size_class) const = 0;
};

/**
 * Figure 2's static bucket partitioning of the shadow region.
 */
class BucketShadowAllocator : public ShadowAllocator
{
  public:
    /** Count of regions per size class, index 0 unused. */
    using Partition = std::array<Addr, numPageSizeClasses>;

    /** The paper's example partition of 512 MB (Figure 2):
     *  1024x16KB, 256x64KB, 128x256KB, 64x1MB, 32x4MB, 16x16MB. */
    static Partition defaultPartition();

    /**
     * Figure 2's partition scaled to an arbitrary shadow region:
     * each class keeps the same *byte* share it has of the default
     * 512 MB, rounded down to whole regions (classes whose share
     * rounds to zero get no regions). For a 512 MB region this is
     * exactly defaultPartition(); tiny regions (the model checker's
     * few MB) get proportionally few small regions.
     */
    static Partition partitionFor(const AddrRange &shadow);

    /**
     * @param shadow    the shadow region to carve up
     * @param partition regions per size class; must fit in shadow
     */
    BucketShadowAllocator(const AddrRange &shadow,
                          const Partition &partition);

    std::optional<Addr> allocate(unsigned size_class) override;
    void free(Addr base, unsigned size_class) override;
    Addr available(unsigned size_class) const override;

  private:
    std::array<std::vector<Addr>, numPageSizeClasses> buckets_;
    AddrRange shadow_;
};

/**
 * Buddy-system allocator over the shadow region (the paper's §2.4
 * "more complex scheme" for when buckets prove too rigid).
 */
class BuddyShadowAllocator : public ShadowAllocator
{
  public:
    explicit BuddyShadowAllocator(const AddrRange &shadow);

    std::optional<Addr> allocate(unsigned size_class) override;
    void free(Addr base, unsigned size_class) override;
    Addr available(unsigned size_class) const override;

  private:
    /** Try to split a block of a larger class down to @p size_class. */
    bool splitDownTo(unsigned size_class);

    AddrRange shadow_;
    /** Free lists per class; key = block base. std::map gives O(log)
     *  buddy lookup on free(). */
    std::array<std::map<Addr, bool>, numPageSizeClasses + 2> freeBlocks_;
    unsigned topClass_;
};

} // namespace mtlbsim
