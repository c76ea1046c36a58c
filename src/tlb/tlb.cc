#include "tlb/tlb.hh"

#include <bit>

namespace mtlbsim
{

unsigned
sizeClassFor(Addr bytes)
{
    for (unsigned c = 0; c < numPageSizeClasses; ++c) {
        if (pageSizeForClass(c) >= bytes)
            return c;
    }
    return numPageSizeClasses - 1;
}

namespace
{

/** @p num_entries, if it is a legal capacity (checked before any
 *  storage is sized from it). */
unsigned
checkedCapacity(unsigned num_entries)
{
    fatalIf(num_entries == 0, "TLB must have at least one entry");
    fatalIf(num_entries > Tlb::maxEntries, "TLB of ", num_entries,
            " entries exceeds the supported ", Tlb::maxEntries);
    return num_entries;
}

} // namespace

Tlb::Tlb(unsigned num_entries, const std::string &name,
         stats::StatGroup &parent)
    : numEntries_(checkedCapacity(num_entries)),
      // At least two buckets per entry, so chains stay short.
      numBuckets_(std::bit_ceil(2 * num_entries)),
      indexShift_(64 - static_cast<unsigned>(std::countr_zero(numBuckets_))),
      entries_(num_entries), links_(numBuckets_ + num_entries, noSlot),
      numFree_(num_entries), nruCandidates_(num_entries),
      statGroup_(name),
      hits_(statGroup_.addScalar("hits", "TLB hits")),
      misses_(statGroup_.addScalar("misses", "TLB misses")),
      protFaults_(statGroup_.addScalar("prot_faults",
                                       "protection faults on TLB hits")),
      inserts_(statGroup_.addScalar("inserts", "entries inserted")),
      evictions_(statGroup_.addScalar("evictions",
                                      "entries evicted by NRU"))
{
    parent.addChild(&statGroup_);
    // Slot 0 is handed out first, then 1, 2, ...
    for (unsigned i = 0; i + 1 < num_entries; ++i)
        link(i) = i + 1;
}

int
Tlb::indexedSlot(Addr vbase, unsigned size_class) const
{
    panicIf(size_class >= numPageSizeClasses, "illegal page size class ",
            size_class);
    if (!(liveClasses_ >> size_class & 1))
        return -1;
    return findInClass(vbase, size_class);
}

void
Tlb::indexUnlink(unsigned slot)
{
    const TlbEntry &e = entries_[slot];
    unsigned *at = &links_[bucketOf(indexKey(e.vbase, e.sizeClass))];
    while (*at != slot) {
        panicIf(*at == noSlot, "TLB index lost a valid entry");
        at = &link(*at);
    }
    *at = link(slot);
}

unsigned
Tlb::indexSize() const
{
    unsigned keys = 0;
    for (unsigned b = 0; b < numBuckets_; ++b) {
        for (unsigned s = links_[b]; s != noSlot && keys <= numEntries_;
             s = link(s))
            ++keys;
    }
    return keys;
}

TlbLookupResult
Tlb::lookupSlot(unsigned slot, Addr vaddr, AccessType type,
                AccessMode mode)
{
    panicIf(slot >= numEntries_ || !entries_[slot].covers(vaddr),
            "TLB slot ", slot, " does not cover 0x", std::hex, vaddr);
    return hit(slot, vaddr, type, mode);
}

unsigned
Tlb::pickVictim()
{
    // NRU: the first unreferenced, unpinned entry at or after a
    // rotating clock hand, wrapping round; if every candidate is
    // referenced, clear all reference bits and search again.
    for (int pass = 0; pass < 2; ++pass) {
        std::size_t idx = nruCandidates_.firstSetFrom(nruClock_);
        if (idx == Bitset::npos)
            idx = nruCandidates_.firstSetFrom(0);
        if (idx != Bitset::npos) {
            const auto victim = static_cast<unsigned>(idx);
            nruClock_ = victim + 1 == numEntries_ ? 0 : victim + 1;
            return victim;
        }
        ageAll();
    }
    panic("TLB victim search failed: all entries pinned?");
}

void
Tlb::ageAll()
{
    // The NRU epoch reset. The only place referenced bits are
    // cleared, so it retires the page memo, whose live entries
    // promise a set bit.
    for (unsigned i = 0; i < numEntries_; ++i) {
        TlbEntry &e = entries_[i];
        if (e.valid && !e.pinned) {
            e.referenced = false;
            nruCandidates_.set(i);
        }
    }
    bumpTranslationEpoch();
}

void
Tlb::dropEntry(unsigned idx)
{
    TlbEntry &e = entries_[idx];
    panicIf(!e.valid, "dropping an invalid TLB entry");
    const unsigned c = e.sizeClass;
    indexUnlink(idx);
    if (--liveInClass_[c] == 0)
        liveClasses_ &= ~(1u << c);
    nruCandidates_.reset(idx);
    e.valid = false;
    e.pinned = false;
    link(idx) = freeTop_;
    freeTop_ = idx;
    ++numFree_;
    // A base-page entry backs at most its own page's memo slot; a
    // superpage entry may back many.
    if (c == 0)
        memo_.retire(e.vbase >> basePageShift);
    else
        bumpTranslationEpoch();
}

unsigned
Tlb::insert(Addr vbase, Addr pbase, unsigned size_class,
            PageProtection prot, bool pinned)
{
    fatalIf(size_class >= numPageSizeClasses,
            "illegal page size class ", size_class);
    const Addr size = pageSizeForClass(size_class);
    fatalIf(vbase & (size - 1),
            "virtual base not aligned to its superpage size");
    fatalIf(pbase & (size - 1),
            "physical base not aligned to its superpage size");

    // Discard overlapping pre-existing mappings (§2.3). Valid entries
    // never overlap and are base-page aligned, so for a base page the
    // entry covering vbase (if any) is the only overlap — and a page
    // whose lookup was the last to miss has none.
    if (size_class == 0) {
        if (vbase >> basePageShift != missedPage_) {
            const int covering = findEntry(vbase);
            if (covering >= 0)
                dropEntry(static_cast<unsigned>(covering));
        }
    } else {
        purgeRange(vbase, size);
    }
    missedPage_ = noPage;

    if (numFree_ == 0) {
        ++evictions_;
        dropEntry(pickVictim());
    }
    const unsigned idx = freeTop_;
    freeTop_ = link(idx);
    --numFree_;

    TlbEntry &e = entries_[idx];
    e.vbase = vbase;
    e.pbase = pbase;
    e.sizeClass = size_class;
    e.prot = prot;
    e.valid = true;
    e.pinned = pinned;
    e.referenced = true;

    unsigned &head = links_[bucketOf(indexKey(vbase, size_class))];
    link(idx) = head;
    head = idx;
    ++liveInClass_[size_class];
    liveClasses_ |= 1u << size_class;
    ++inserts_;
    return idx;
}

void
Tlb::purgeRange(Addr vbase, Addr bytes)
{
    missedPage_ = noPage;
    const Addr vend = vbase + bytes;
    for (unsigned i = 0; i < numEntries_; ++i) {
        TlbEntry &e = entries_[i];
        if (!e.valid)
            continue;
        const Addr e_end = e.vbase + e.size();
        if (e.vbase < vend && vbase < e_end)
            dropEntry(i);
    }
}

void
Tlb::purgeAll()
{
    missedPage_ = noPage;
    for (unsigned i = 0; i < numEntries_; ++i) {
        if (entries_[i].valid && !entries_[i].pinned)
            dropEntry(i);
    }
    // Retire the whole memo even when nothing was purgeable (a
    // context switch relies on it).
    bumpTranslationEpoch();
}

unsigned
Tlb::occupancy() const
{
    return numEntries_ - numFree_;
}

std::optional<TlbEntry>
Tlb::probe(Addr vaddr) const
{
    const int idx = findEntry(vaddr);
    if (idx < 0)
        return std::nullopt;
    return entries_[idx];
}

std::vector<TlbEntry>
Tlb::auditState() const
{
    std::vector<TlbEntry> valid;
    for (const TlbEntry &e : entries_) {
        if (e.valid)
            valid.push_back(e);
    }
    return valid;
}

MicroItlb::MicroItlb(stats::StatGroup &parent)
    : statGroup_("uitlb"),
      hits_(statGroup_.addScalar("hits", "micro-ITLB hits")),
      misses_(statGroup_.addScalar("misses", "micro-ITLB misses"))
{
    parent.addChild(&statGroup_);
}

} // namespace mtlbsim
