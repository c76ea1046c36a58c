/**
 * @file
 * Single-level data cache model.
 *
 * Per the paper's simulation environment (§3.2): single level, direct
 * mapped, 512 KB, virtually indexed / physically tagged, 32-byte
 * lines, single-cycle hits, non-blocking, write-back. The instruction
 * cache is assumed perfect and is not modelled here.
 *
 * The cache is virtually indexed: the line index is taken from the
 * virtual address, and the stored tag is the full physical line
 * address. This matters for the OS's remap() flush (§2.3/§3.3): all
 * lines of a page being switched between real and shadow mappings
 * must be flushed, and with virtual indexing the flush loop probes
 * exactly the page's 128 candidate line slots.
 *
 * "Physical" tags may be shadow addresses — the whole point of the
 * design is that shadow addresses appear on cache tags and the bus
 * exactly like real physical addresses (§1).
 */

#pragma once

#include <array>
#include <memory>
#include <vector>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "stats/stats.hh"

namespace mtlbsim
{

/**
 * Interface the cache uses to reach memory on a miss. Implemented by
 * the MemorySubsystem (bus + MMC + DRAM composition).
 */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    /**
     * Fetch one line. @param exclusive true for store misses (the
     * MMC uses this to maintain per-base-page dirty bits, §2.5).
     * @return latency in CPU cycles until the line is delivered.
     */
    virtual Cycles lineFill(Addr paddr, bool exclusive, Cycles now) = 0;

    /** Write one dirty line back to memory.
     *  @return CPU cycles until the bus accepted the line. */
    virtual Cycles writeBack(Addr paddr, Cycles now) = 0;
};

/** Cache geometry and timing configuration. */
struct CacheConfig
{
    Addr sizeBytes = 512 * 1024;    ///< total capacity (§3.2)
    Cycles hitCycles = 1;           ///< single-cycle hits (§3.2)
    /** CPU cycles of instruction overhead per line in an explicit
     *  flush loop (contributes to the ~1400-cycle/4 KB remap flush
     *  cost reported in §3.3). */
    Cycles flushProbeCycles = 10;
    /** Virtually indexed (the paper's PA8000-style cache, §3.2).
     *  Set false for a physically indexed cache — the configuration
     *  where shadow-memory page recoloring (§6) applies, because
     *  there the *physical* (or shadow) address chooses the set. */
    bool virtuallyIndexed = true;
};

/** Result of a cache access, consumed by the CPU's timing model. */
struct CacheAccessResult
{
    bool hit = false;
    Cycles latency = 0;     ///< total CPU cycles for this access
};

/**
 * Direct-mapped, virtually indexed, physically tagged cache.
 */
class Cache
{
  public:
    Cache(const CacheConfig &config, MemBackend &backend,
          stats::StatGroup &parent);

    /**
     * Perform one data access.
     *
     * @param vaddr  virtual address (supplies the index)
     * @param paddr  physical or shadow-physical address (the tag)
     * @param write  true for stores
     * @param now    current CPU-cycle time
     */
    CacheAccessResult access(Addr vaddr, Addr paddr, bool write,
                             Cycles now);

    /**
     * @name Batched-access fast path (src/cpu batch engine)
     *
     * A batched access replays the hit path of access() without the
     * per-access statistics: batchHit() applies the architectural
     * side effect (the dirty bit on a store — kernel swap paths read
     * it directly) and the caller counts the hit in a host counter
     * that the hit count includes (includeInHits). The pair is
     * byte-identical to a call of access() that hits: a hit touches
     * no other cache state, and the access count is hits plus
     * misses. Defined inline — this is the innermost loop of the
     * whole simulator.
     */
    /** @{ */

    /** If (vaddr, paddr) hits, apply the hit's side effects minus
     *  the stat counts and return true; on a miss do nothing (the
     *  caller falls back to access()). */
    bool
    batchHit(Addr vaddr, Addr paddr, bool write)
    {
        Line &line = lines_[indexOf(vaddr, paddr)];
        if (!line.valid || line.tag != lineBase(paddr))
            return false;
        if (write)
            line.dirty = true;
        return true;
    }

    /** Count the host counter @p count among the hits (and so
     *  among the accesses): batchHit()s that hit. */
    void includeInHits(const std::uint64_t *count) { hits_.include(count); }
    /** @} */

    /**
     * Flush (write back + invalidate) every line of the 4 KB page at
     * virtual address @p vaddr whose tag matches physical page
     * @p paddr. Used by remap() when converting a region between real
     * and shadow mappings.
     *
     * @return CPU cycles consumed (probe loop + write-backs)
     */
    Cycles flushPage(Addr vaddr, Addr paddr, Cycles now);

    /** Invalidate the whole cache without write-back (test support). */
    void invalidateAll();

    /** Invalidate one line without write-back. Used when a fill was
     *  answered with a precise MMC fault (§4): the returned data is
     *  garbage and must not stay cached. */
    void invalidateLine(Addr vaddr, Addr paddr);

    /** True if the line holding (vaddr, paddr) is present. */
    bool probe(Addr vaddr, Addr paddr) const;

    /** True if the line holding (vaddr, paddr) is present and dirty. */
    bool probeDirty(Addr vaddr, Addr paddr) const;

    unsigned numLines() const { return numLines_; }
    const CacheConfig &config() const { return config_; }

    double
    avgFillLatency() const
    {
        return fillLatency_.mean();
    }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    /** Total demand accesses: hits plus misses. */
    std::uint64_t accesses() const { return accesses_.value(); }

    /** Resident lines tagged with physical page @p paddr, from the
     *  per-page counters (host-side bookkeeping; test support). */
    unsigned residentInPage(Addr paddr) const;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;       ///< full physical line address
    };

    /** Set index: from the virtual address in VIPT mode, from the
     *  physical/shadow address otherwise. Inline: it sits on the
     *  batchHit() hot path. */
    unsigned
    indexOf(Addr vaddr, Addr paddr) const
    {
        const Addr key = config_.virtuallyIndexed ? vaddr : paddr;
        return static_cast<unsigned>(key >> cacheLineShift) & indexMask_;
    }

    /** @name Per-page resident-line accounting
     *
     * Each page's counter holds the resident lines whose tag lies in
     * that physical page, so flushPage() can prove "nothing of this
     * page is cached" in O(1) instead of probing every candidate
     * slot. Pure host-side bookkeeping: the simulated cycles charged
     * are unchanged (§3.2's flush loop still runs its full probe
     * count in simulated time). The counters live in chunks of 1024
     * pages, each allocated when a line of it is first installed:
     * shadow tags lie far above real memory, and one flat array
     * would zero-fill every page below the highest one cached.
     */
    /** @{ */
    static constexpr unsigned chunkShift = 10;
    using PageChunk = std::array<std::uint32_t, 1u << chunkShift>;

    static std::size_t
    slotInChunk(Addr page)
    {
        return static_cast<std::size_t>(page) & ((1u << chunkShift) - 1);
    }

    void
    noteLineInstalled(Addr tag)
    {
        const Addr page = pageFrame(tag);
        const Addr chunk = page >> chunkShift;
        if (chunk >= pageChunks_.size())
            pageChunks_.resize(chunk + 1);
        std::unique_ptr<PageChunk> &counts = pageChunks_[chunk];
        if (!counts)
            counts = std::make_unique<PageChunk>();
        ++(*counts)[slotInChunk(page)];
    }

    void
    noteLineDropped(Addr tag)
    {
        const Addr page = pageFrame(tag);
        --(*pageChunks_[page >> chunkShift])[slotInChunk(page)];
    }
    /** @} */

    CacheConfig config_;
    MemBackend &backend_;
    unsigned numLines_;
    unsigned indexMask_;
    std::vector<Line> lines_;
    /** Resident lines per page, by chunk; null until first used. */
    std::vector<std::unique_ptr<PageChunk>> pageChunks_;

    stats::StatGroup statGroup_;
    stats::Scalar &accesses_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
    stats::Scalar &writeBacks_;
    stats::Scalar &flushedLines_;
    stats::Average &fillLatency_;
};

} // namespace mtlbsim
