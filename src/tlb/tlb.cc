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
      entries_(num_entries),
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
    freeList_.reserve(num_entries);
    for (unsigned i = 0; i < num_entries; ++i)
        freeList_.push_back(num_entries - 1 - i);
    // At most half full, so every probe run ends at an empty slot.
    const unsigned slots = std::bit_ceil(2 * num_entries);
    index_.resize(slots);
    indexMask_ = slots - 1;
    indexShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

int
Tlb::findInClass(Addr vaddr, unsigned size_class) const
{
    if (liveInClass_[size_class] == 0)
        return -1;
    const Addr key = indexKey(vaddr, size_class);
    for (unsigned i = indexHome(key);; i = (i + 1) & indexMask_) {
        const IndexSlot &s = index_[i];
        if (s.key == key)
            return static_cast<int>(s.entry);
        if (s.key == emptyKey)
            return -1;
    }
}

int
Tlb::findEntry(Addr vaddr) const
{
    for (unsigned c = 0; c < numPageSizeClasses; ++c) {
        const int idx = findInClass(vaddr, c);
        if (idx >= 0)
            return idx;
    }
    return -1;
}

int
Tlb::indexedSlot(Addr vbase, unsigned size_class) const
{
    panicIf(size_class >= numPageSizeClasses, "illegal page size class ",
            size_class);
    return findInClass(vbase, size_class);
}

void
Tlb::indexInsert(Addr key, unsigned entry)
{
    unsigned i = indexHome(key);
    while (index_[i].key != emptyKey) {
        panicIf(index_[i].key == key, "TLB index holds a key twice");
        i = (i + 1) & indexMask_;
    }
    index_[i] = {key, entry};
}

void
Tlb::indexErase(Addr key)
{
    unsigned gap = indexHome(key);
    while (index_[gap].key != key) {
        panicIf(index_[gap].key == emptyKey,
                "TLB index lost a valid entry");
        gap = (gap + 1) & indexMask_;
    }
    // Backward-shift deletion: walk the rest of the probe cluster and
    // move back into the gap every key whose home does not lie
    // cyclically in (gap, i] — it would be unreachable past the gap.
    for (unsigned i = (gap + 1) & indexMask_; index_[i].key != emptyKey;
         i = (i + 1) & indexMask_) {
        const unsigned home = indexHome(index_[i].key);
        if (((i - home) & indexMask_) >= ((i - gap) & indexMask_)) {
            index_[gap] = index_[i];
            gap = i;
        }
    }
    index_[gap].key = emptyKey;
}

unsigned
Tlb::indexSize() const
{
    unsigned keys = 0;
    for (const IndexSlot &s : index_)
        keys += s.key != emptyKey;
    return keys;
}

TlbLookupResult
Tlb::lookup(Addr vaddr, AccessType type, AccessMode mode)
{
    const int idx = findEntry(vaddr);
    if (idx < 0) {
        ++misses_;
        return {};
    }

    TlbEntry &entry = entries_[idx];
    entry.referenced = true;

    if (type == AccessType::Write && !entry.prot.writable) {
        ++protFaults_;
        return {true, true, 0};
    }
    if (mode == AccessMode::User && !entry.prot.userAccessible) {
        ++protFaults_;
        return {true, true, 0};
    }

    ++hits_;
    return {true, false, entry.translate(vaddr), entry.prot.writable};
}

unsigned
Tlb::pickVictim()
{
    // NRU: scan for an unreferenced, unpinned entry starting from a
    // rotating clock hand; if every candidate is referenced, clear
    // all reference bits and take the first unpinned entry.
    for (int pass = 0; pass < 2; ++pass) {
        // Wrap-around scan without division: nruClock_ is always in
        // [0, numEntries_), so one compare-and-reset per step replaces
        // the two modulo operations of the obvious formulation.
        unsigned idx = nruClock_;
        for (unsigned i = 0; i < numEntries_; ++i) {
            const TlbEntry &e = entries_[idx];
            if (e.valid && !e.pinned && !e.referenced) {
                nruClock_ = idx + 1 == numEntries_ ? 0 : idx + 1;
                return idx;
            }
            idx = idx + 1 == numEntries_ ? 0 : idx + 1;
        }
        // All referenced: age everything (the NRU epoch reset). The
        // only place referenced bits are cleared, so it retires the
        // page memo, whose live entries promise a set bit.
        for (auto &e : entries_) {
            if (e.valid && !e.pinned)
                e.referenced = false;
        }
        bumpTranslationEpoch();
    }
    panic("TLB victim search failed: all entries pinned?");
}

void
Tlb::dropEntry(unsigned idx)
{
    TlbEntry &e = entries_[idx];
    panicIf(!e.valid, "dropping an invalid TLB entry");
    const unsigned c = e.sizeClass;
    indexErase(indexKey(e.vbase, c));
    --liveInClass_[c];
    e.valid = false;
    e.pinned = false;
    freeList_.push_back(idx);
    // A base-page entry backs at most its own page's memo slot; a
    // superpage entry may back many.
    if (c == 0)
        memo_.retire(e.vbase >> basePageShift);
    else
        bumpTranslationEpoch();
}

void
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
    // entry covering vbase (if any) is the only overlap.
    if (size_class == 0) {
        const int covering = findEntry(vbase);
        if (covering >= 0)
            dropEntry(static_cast<unsigned>(covering));
    } else {
        purgeRange(vbase, size);
    }

    unsigned idx;
    if (!freeList_.empty()) {
        idx = freeList_.back();
        freeList_.pop_back();
    } else {
        idx = pickVictim();
        ++evictions_;
        dropEntry(idx);
        freeList_.pop_back();
    }

    TlbEntry &e = entries_[idx];
    e.vbase = vbase;
    e.pbase = pbase;
    e.sizeClass = size_class;
    e.prot = prot;
    e.valid = true;
    e.pinned = pinned;
    e.referenced = true;

    indexInsert(indexKey(vbase, size_class), idx);
    ++liveInClass_[size_class];
    ++inserts_;
}

void
Tlb::purgeRange(Addr vbase, Addr bytes)
{
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
    return numEntries_ - static_cast<unsigned>(freeList_.size());
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
