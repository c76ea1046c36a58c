/**
 * @file
 * The MMC's shadow-to-physical translation table.
 *
 * Per §2.2 of the paper: a dense, flat array indexed by shadow page
 * offset. Each 4-byte entry holds a real page frame number (24 bits,
 * enough for 64 GB of real memory) plus validity, page-fault,
 * reference, and modification bits. The table itself lives in real
 * DRAM at an OS-configured base address; hardware MTLB fills read it
 * with an uncached 4-byte DRAM load.
 *
 * For a 512 MB shadow region with 4 KB pages the table is 128 K
 * entries = 512 KB, an overhead of ~0.1% of an equally sized real
 * memory.
 */

#pragma once

#include <vector>

#include "base/bitset.hh"
#include "base/logging.hh"
#include "base/types.hh"

namespace mtlbsim
{

/** One 4-byte entry of the shadow-to-physical table (§2.2). */
struct ShadowPte
{
    std::uint32_t realPfn : 24 = 0; ///< real page frame number
    std::uint32_t valid : 1 = 0;    ///< mapping established and present
    std::uint32_t fault : 1 = 0;    ///< access faulted (page swapped out)
    std::uint32_t referenced : 1 = 0;
    std::uint32_t modified : 1 = 0;
    std::uint32_t reserved : 4 = 0; ///< room for future expansion
};

static_assert(sizeof(ShadowPte) == 4, "shadow PTE must be 4 bytes");

/**
 * Flat shadow-to-physical mapping table.
 *
 * Indexed by shadow page index (shadow address minus region base,
 * divided by the base page size). The OS writes entries through MMC
 * control registers; the MTLB fill hardware reads them. Beside the
 * entries the table keeps an index of the valid ones, which only
 * set(), invalidate() and clear() change, so forEachValid() visits
 * the live mappings without scanning the whole table.
 */
class ShadowTable
{
  public:
    /**
     * @param num_entries one entry per shadow base page
     * @param table_base  real physical address of entry 0 (the fill
     *                    hardware computes entry addresses from it)
     */
    ShadowTable(Addr num_entries, Addr table_base)
        : entries_(num_entries), valid_(num_entries),
          tableBase_(table_base)
    {
        fatalIf(num_entries == 0, "empty shadow table");
        fatalIf(table_base & 3, "table base must be 4-byte aligned");
    }

    Addr numEntries() const { return entries_.size(); }
    Addr tableBase() const { return tableBase_; }

    /** Real physical address of entry @p idx — the address the fill
     *  hardware's DRAM read goes to (§2.2: index << 2 + base). */
    Addr
    entryAddr(Addr idx) const
    {
        checkIndex(idx);
        return tableBase_ + (idx << 2);
    }

    const ShadowPte &
    entry(Addr idx) const
    {
        checkIndex(idx);
        return entries_[idx];
    }

    /** Install a valid mapping (OS path, via MMC control register). */
    void
    set(Addr idx, Addr real_pfn)
    {
        checkIndex(idx);
        fatalIf(real_pfn >= (Addr{1} << 24),
                "real PFN exceeds 24-bit table field: ", real_pfn);
        ShadowPte &e = entries_[idx];
        e.realPfn = static_cast<std::uint32_t>(real_pfn);
        e.valid = 1;
        e.fault = 0;
        e.referenced = 0;
        e.modified = 0;
        if (!valid_.test(idx))
            ++numValid_;
        valid_.set(idx);
    }

    /** Invalidate a mapping (e.g. the base page was swapped out).
     *  Referenced/modified bits are preserved for OS inspection. */
    void
    invalidate(Addr idx)
    {
        checkIndex(idx);
        entries_[idx].valid = 0;
        unmarkValid(idx);
    }

    /** Clear an entry completely (region freed). */
    void
    clear(Addr idx)
    {
        checkIndex(idx);
        entries_[idx] = ShadowPte{};
        unmarkValid(idx);
    }

    /** @name Status-bit writes
     *  These leave the mapping and its validity alone, so set(),
     *  invalidate() and clear() are the only writers of the valid
     *  bit and of forEachValid()'s index. */
    /** @{ */

    /** Record that an access found the entry invalid (§4). */
    void
    markFault(Addr idx)
    {
        checkIndex(idx);
        entries_[idx].fault = 1;
    }

    void
    setReferenced(Addr idx, bool referenced)
    {
        checkIndex(idx);
        entries_[idx].referenced = referenced;
    }

    void
    setModified(Addr idx, bool modified)
    {
        checkIndex(idx);
        entries_[idx].modified = modified;
    }

    /** @} */

    Addr numValid() const { return numValid_; }

    /** Call @p fn(idx, pte) for every valid entry, in index order,
     *  in time proportional to the valid entries plus one word test
     *  per 64 entries. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        valid_.forEachSet([&](std::size_t idx) {
            fn(Addr{idx}, entries_[idx]);
        });
    }

  private:
    void
    unmarkValid(Addr idx)
    {
        if (valid_.test(idx))
            --numValid_;
        valid_.reset(idx);
    }

    void
    checkIndex(Addr idx) const
    {
        panicIf(idx >= entries_.size(),
                "shadow table index out of range: ", idx);
    }

    std::vector<ShadowPte> entries_;
    /** Bit i set exactly when entries_[i].valid. */
    Bitset valid_;
    Addr numValid_ = 0;
    Addr tableBase_;
};

} // namespace mtlbsim
