/**
 * @file
 * CPU-resident translation lookaside buffer model.
 *
 * Models the paper's processor TLBs (§3.2): unified I/D, single
 * cycle, fully associative, not-recently-used (NRU) replacement.
 * Entries may map superpages — power-of-4 multiples of the 4 KB base
 * page (16 KB up to 64 MB), as in PA-RISC 2.0 and the R10000 (§1).
 *
 * A superpage entry's physical base may be a *shadow* address; the
 * TLB is agnostic — shadow addresses flow through it exactly like
 * real ones (§2.1).
 *
 * Misses are serviced by a software trap routine modelled in the CPU;
 * this class only tracks the architectural content and hit/miss
 * statistics. A single pinned "block TLB" entry maps kernel code and
 * data and is never replaced (§3.2).
 */

#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/bitset.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "stats/stats.hh"

namespace mtlbsim
{

/**
 * Legal page-size classes: size = 4 KB * 4^sizeClass.
 * Class 0 is the base page; classes 1..7 are superpages (§1).
 */
constexpr unsigned numPageSizeClasses = 8;

/** Byte shift for a page-size class. */
constexpr unsigned
pageShiftForClass(unsigned size_class)
{
    return basePageShift + 2 * size_class;
}

/** Byte size for a page-size class. */
constexpr Addr
pageSizeForClass(unsigned size_class)
{
    return Addr{1} << pageShiftForClass(size_class);
}

/** Smallest size class whose page size is >= bytes (caps at max). */
unsigned sizeClassFor(Addr bytes);

/** Page protection attributes carried in each TLB entry (§2.1). */
struct PageProtection
{
    bool writable = true;
    bool userAccessible = true;

    bool operator==(const PageProtection &) const = default;
};

/** One TLB entry: maps a (super)page of virtual space. */
struct TlbEntry
{
    Addr vbase = 0;         ///< virtual base (aligned to the size)
    Addr pbase = 0;         ///< physical/shadow base (aligned too)
    unsigned sizeClass = 0; ///< page size = 4 KB * 4^sizeClass
    PageProtection prot;
    bool valid = false;
    bool pinned = false;    ///< block-TLB entry, never replaced
    bool referenced = false; ///< NRU reference bit

    Addr size() const { return pageSizeForClass(sizeClass); }

    bool
    covers(Addr vaddr) const
    {
        return valid && (vaddr >> pageShiftForClass(sizeClass)) ==
                            (vbase >> pageShiftForClass(sizeClass));
    }

    /** Translate an address this entry covers. */
    Addr
    translate(Addr vaddr) const
    {
        const Addr mask = size() - 1;
        return pbase | (vaddr & mask);
    }
};

/** Outcome of a TLB lookup. */
struct TlbLookupResult
{
    bool hit = false;
    bool protFault = false; ///< hit, but the access is not permitted
    Addr paddr = 0;         ///< valid when hit && !protFault
    /** The entry's write permission (valid with paddr); lets
     *  Cpu::translate() record it in the page memo without a second
     *  probe. */
    bool writable = false;
    /** The entry's slot (valid on a hit): the micro-ITLB fill reads
     *  the entry there instead of probing again. */
    unsigned slot = 0;
};

/**
 * The page memo: a direct-mapped array of base-page translations, each
 * stamped with the translation epoch it was filled under. Host-side
 * only — never part of the simulated machine, never in the statistics
 * tree. Each Tlb owns one; its core's Cpu::translate() serves TLB hits
 * from it and the batch engine replays cache hits on it.
 *
 * An entry is filled only from a successful TLB lookup and is live
 * only while its slot still holds its page and its stamp equals the
 * TLB's current epoch. Retirement is precise where it can be cheap:
 * dropping a base-page TLB entry retires that page's slot alone,
 * since no other memoized page can depend on it. Everything else that
 * changes translation state — dropping a superpage entry (it backs
 * many slots), purgeAll(), an NRU aging pass, and every kernel site
 * through Kernel::invalidateTranslation() — bumps the epoch, which
 * retires every slot at once. The NRU referenced bit needs no per-hit
 * store: the lookup that filled an entry set its TLB entry's bit, and
 * the bit is only cleared by the aging pass, which bumps the epoch.
 * The TranslationAuditor's memo-coherence invariant checks exactly
 * this.
 */
struct PageMemo
{
    struct Entry
    {
        /** Virtual page; the all-ones sentinel never matches a real
         *  vpage, so no entry is live initially. */
        Addr vpage = ~Addr{0};
        Addr pframeBase = 0;        ///< physical/shadow frame base
        std::uint64_t epoch = 0;    ///< translation epoch at fill
        bool writable = false;      ///< page accepts stores
        /** The TLB slot of the entry that produced the translation;
         *  it holds that entry for as long as this one is live. */
        unsigned tlbSlot = 0;
    };

    /** Entries (power of two). Hot sets alternate between pages far
     *  more often than they stream within one, so the memo holds
     *  many pages at once; 32 KB of host memory per core. */
    static constexpr unsigned size = 1024;

    Entry &slot(Addr vpage) { return entries[vpage & (size - 1)]; }

    /** The entry for @p vaddr's page if it is live under @p epoch,
     *  else null. */
    const Entry *
    live(Addr vaddr, std::uint64_t epoch) const
    {
        const Addr vpage = vaddr >> basePageShift;
        const Entry &e = entries[vpage & (size - 1)];
        return e.vpage == vpage && e.epoch == epoch ? &e : nullptr;
    }

    /** Retire @p vpage's entry, if its slot holds one. */
    void
    retire(Addr vpage)
    {
        Entry &e = slot(vpage);
        if (e.vpage == vpage)
            e.vpage = ~Addr{0};
    }

    Entry entries[size];
};

/**
 * Fully associative, NRU-replacement TLB with superpage support.
 */
class Tlb
{
  public:
    /**
     * @param num_entries capacity including the pinned block entry
     * @param name        stats group name (e.g. "dtlb")
     */
    Tlb(unsigned num_entries, const std::string &name,
        stats::StatGroup &parent);

    /**
     * Look up @p vaddr for an access of kind @p type in mode @p mode.
     * On a hit the entry's NRU bit is set.
     */
    TlbLookupResult lookup(Addr vaddr, AccessType type, AccessMode mode);

    /**
     * lookup() for an access whose entry the caller already holds:
     * slot @p slot must cover @p vaddr, as the slot the miss handler
     * just filled does. Sets the NRU bit and counts the hit or the
     * protection fault exactly as lookup() would, without probing
     * the index.
     */
    TlbLookupResult lookupSlot(unsigned slot, Addr vaddr, AccessType type,
                               AccessMode mode);

    /**
     * Insert a mapping, evicting an NRU victim if full. The caller
     * (the miss handler model) has already charged the trap cost.
     *
     * Pre-existing entries overlapping the same virtual range are
     * discarded first, as on TLBs that auto-purge duplicates (§2.3).
     * A base-page insert does this with at most one index probe:
     * valid entries never overlap and are base-page aligned, so the
     * one entry covering @p vbase is the only possible overlap. It
     * skips even that probe when the last lookup missed this very
     * page and nothing has been inserted or purged since — the miss
     * handler's fill. A superpage insert scans every entry
     * (purgeRange).
     *
     * @return the slot the mapping now occupies
     */
    unsigned insert(Addr vbase, Addr pbase, unsigned size_class,
                    PageProtection prot, bool pinned = false);

    /** Remove any entries overlapping [vbase, vbase+bytes). */
    void purgeRange(Addr vbase, Addr bytes);

    /** Remove all non-pinned entries. */
    void purgeAll();

    /** Number of valid entries. */
    unsigned occupancy() const;

    unsigned capacity() const { return numEntries_; }

    /** Probe without updating NRU state or stats (test support). */
    std::optional<TlbEntry> probe(Addr vaddr) const;

    /** The slot the lookup index maps (@p vbase, @p size_class) to, or
     *  -1 — exactly the probe a lookup makes in that size class. The
     *  tlb-coherence invariant (src/check) uses it to prove the index
     *  maps exactly the valid entries. */
    int indexedSlot(Addr vbase, unsigned size_class) const;

    /** Keys held by the lookup index, counted chain by chain (audit
     *  support: equals occupancy() when the index maps exactly the
     *  valid entries; a chain that loops stops the count past
     *  capacity()). */
    unsigned indexSize() const;

    /** @name Index geometry (test support: lets a test put several
     *  keys in one bucket) */
    /** @{ */
    unsigned indexBuckets() const { return numBuckets_; }
    unsigned
    indexBucketOf(Addr vbase, unsigned size_class) const
    {
        return bucketOf(indexKey(vbase, size_class));
    }
    /** @} */

    /** The entry in @p slot (canonical-state capture by the model
     *  checker, src/model). */
    const TlbEntry &
    entryAt(unsigned slot) const
    {
        panicIf(slot >= numEntries_, "TLB slot ", slot,
                " out of range");
        return entries_[slot];
    }

    /**
     * @name Page memo and translation epoch
     *
     * The epoch is a monotonic counter whose every increment lazily
     * retires every memoized translation (PageMemo). Inside the TLB
     * it is bumped by an NRU aging pass, by dropping a superpage
     * entry and by purgeAll(); dropping a base-page entry retires
     * only that page's memo slot. Kernel paths that mutate
     * translation state below the TLB (MTLB shadow-mapping changes,
     * frame reuse on swap) bump it through
     * Kernel::invalidateTranslation().
     */
    /** @{ */
    PageMemo &memo() { return memo_; }
    const PageMemo &memo() const { return memo_; }

    std::uint64_t translationEpoch() const { return epoch_; }

    /**
     * Advance the epoch. Wrap-safe: a 64-bit counter bumped once per
     * simulated cycle at the paper's 240 MHz would take ~2400 years
     * to wrap, but if it ever does, 0 is skipped — 0 marks a
     * never-filled memo entry, so an epoch of 0 would make stale
     * entries look permanently live (the auditor asserts both sides
     * of this, see TranslationAuditor::checkMemoCoherence).
     */
    void
    bumpTranslationEpoch()
    {
        if (++epoch_ == 0)
            epoch_ = 1;
    }
    /** @} */

    /** NRU victim-scan start point (canonical-state capture by the
     *  model checker, src/model; replacement behaviour depends on
     *  it). */
    unsigned nruClock() const { return nruClock_; }

    /** Account a page-memo hit. The slow path's bookkeeping on a hit
     *  is one hits_ increment plus a referenced-bit store that is
     *  idempotent while the memo entry is live (PageMemo), so this
     *  keeps statistics bit-identical. */
    void noteMemoHit() { ++hits_; }

    /** Count the host counter @p count among the hits: the batch
     *  engine's replayed accesses, each on a live memo entry, so
     *  noteMemoHit's argument covers them. */
    void includeInHits(const std::uint64_t *count) { hits_.include(count); }

    /** The miss counter, which the kernel's trap count includes. */
    const stats::Scalar *missStat() const { return &misses_; }

    /** Snapshot of every valid entry, for the invariant auditor
     *  (src/check). Does not touch NRU state or statistics. */
    std::vector<TlbEntry> auditState() const;

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Largest supported capacity: the index is sized from it, and a
     *  fully associative TLB far beyond the paper's 64-256 entries
     *  would only be a mistyped config value. */
    static constexpr unsigned maxEntries = 1u << 20;

  private:
    /**
     * The lookup index is a chained hash table keyed by (virtual page
     * number of a size class, size class), threaded through the
     * slots: links_ holds one head per bucket, then one link per
     * slot. A valid slot's link is the next slot of its bucket's
     * chain; a free slot's link is the next slot of the free stack.
     * Sized once, to at least twice the capacity in buckets, so
     * chains stay short without rehashing; insert and erase relink
     * one chain and never move another key.
     */
    static constexpr unsigned noSlot = ~0u;
    static constexpr Addr noPage = ~Addr{0};
    static constexpr unsigned classKeyBits = 3;
    static_assert(numPageSizeClasses <= 1u << classKeyBits);

    static Addr
    indexKey(Addr vaddr, unsigned size_class)
    {
        return ((vaddr >> pageShiftForClass(size_class))
                << classKeyBits) | size_class;
    }

    /** Fibonacci hash: the key's golden-ratio product, top bits. */
    unsigned
    bucketOf(Addr key) const
    {
        return static_cast<unsigned>((key * 0x9e3779b97f4a7c15ULL) >>
                                     indexShift_);
    }

    unsigned &link(unsigned slot) { return links_[numBuckets_ + slot]; }
    unsigned
    link(unsigned slot) const
    {
        return links_[numBuckets_ + slot];
    }

    int findInClass(Addr vaddr, unsigned size_class) const;
    int findEntry(Addr vaddr) const;
    TlbLookupResult hit(unsigned slot, Addr vaddr, AccessType type,
                        AccessMode mode);
    void indexUnlink(unsigned slot);
    unsigned pickVictim();
    void ageAll();
    void dropEntry(unsigned idx);

    unsigned numEntries_;
    unsigned numBuckets_;
    unsigned indexShift_;       ///< 64 - log2(numBuckets_)
    std::vector<TlbEntry> entries_;
    /** Bucket heads, then slot links (see above). */
    std::vector<unsigned> links_;
    unsigned freeTop_ = 0;      ///< top of the free stack, or noSlot
    unsigned numFree_;
    /** Bit s set exactly when slot s is valid, unpinned and
     *  unreferenced: the NRU victim candidates. Only the first hit
     *  after an aging pass clears a bit. */
    Bitset nruCandidates_;
    /** Live entries per size class, and bit c set when class c has
     *  any: lookups probe only live classes. */
    unsigned liveInClass_[numPageSizeClasses] = {};
    unsigned liveClasses_ = 0;
    /** The page whose lookup missed last, while no insert or purge
     *  has followed: no valid entry covers it. */
    Addr missedPage_ = noPage;
    unsigned nruClock_ = 0; ///< rotating start point for victim scan
    /** Translation epoch; starts at 1 so a zero-initialized memo
     *  entry can never appear live. */
    std::uint64_t epoch_ = 1;
    PageMemo memo_;

    stats::StatGroup statGroup_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
    stats::Scalar &protFaults_;
    stats::Scalar &inserts_;
    stats::Scalar &evictions_;
};

// The lookup path is defined here, where the compiler sees the class
// loop, the chain walk and the hit accounting as one function: it runs
// on every access the page memo does not serve.

inline int
Tlb::findInClass(Addr vaddr, unsigned size_class) const
{
    const unsigned shift = pageShiftForClass(size_class);
    const Addr vpn = vaddr >> shift;
    for (unsigned s = links_[bucketOf(indexKey(vaddr, size_class))];
         s != noSlot; s = link(s)) {
        const TlbEntry &e = entries_[s];
        if (e.sizeClass == size_class && e.vbase >> shift == vpn)
            return static_cast<int>(s);
    }
    return -1;
}

inline int
Tlb::findEntry(Addr vaddr) const
{
    for (unsigned live = liveClasses_; live != 0; live &= live - 1) {
        const int idx = findInClass(
            vaddr, static_cast<unsigned>(std::countr_zero(live)));
        if (idx >= 0)
            return idx;
    }
    return -1;
}

inline TlbLookupResult
Tlb::hit(unsigned slot, Addr vaddr, AccessType type, AccessMode mode)
{
    TlbEntry &entry = entries_[slot];
    if (!entry.referenced) {
        entry.referenced = true;
        nruCandidates_.reset(slot);
    }

    if ((type == AccessType::Write && !entry.prot.writable) ||
        (mode == AccessMode::User && !entry.prot.userAccessible)) {
        ++protFaults_;
        return {true, true, 0, false, slot};
    }

    ++hits_;
    return {true, false, entry.translate(vaddr), entry.prot.writable,
            slot};
}

inline TlbLookupResult
Tlb::lookup(Addr vaddr, AccessType type, AccessMode mode)
{
    const int idx = findEntry(vaddr);
    if (idx < 0) {
        ++misses_;
        missedPage_ = vaddr >> basePageShift;
        return {};
    }
    return hit(static_cast<unsigned>(idx), vaddr, type, mode);
}

/**
 * Single-entry micro-ITLB holding the most recent instruction
 * translation (§3.2). Instruction fetches that hit here do not
 * consult the unified TLB at all.
 */
class MicroItlb
{
  public:
    explicit MicroItlb(stats::StatGroup &parent);

    /** True if the fetch at @p vaddr hits the cached translation. */
    bool
    hit(Addr vaddr)
    {
        if (valid_ && entry_.covers(vaddr)) {
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    /**
     * Would hit() succeed? A pure probe with no statistics — the
     * batch engine's ifetch fast path tests this per fetch and
     * counts the hit in a host counter of its own (includeInHits),
     * so the decision stays exactly per-access.
     */
    bool
    covers(Addr vaddr) const
    {
        return valid_ && entry_.covers(vaddr);
    }

    /** Count the host counter @p count among the hits: the batch
     *  engine's fetches that covers() passed. */
    void includeInHits(const std::uint64_t *count) { hits_.include(count); }

    /** @name The lookup counters, which the CPU's fetch checks
     *  include */
    /** @{ */
    const stats::Scalar *hitStat() const { return &hits_; }
    const stats::Scalar *missStat() const { return &misses_; }
    /** @} */

    /** Install the translation used by the last fetch. */
    void
    fill(const TlbEntry &entry)
    {
        entry_ = entry;
        valid_ = true;
    }

    void invalidate() { valid_ = false; }

  private:
    TlbEntry entry_;
    bool valid_ = false;

    stats::StatGroup statGroup_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
};

} // namespace mtlbsim
