#include "os/hpt.hh"

#include "base/intmath.hh"

namespace mtlbsim
{

Hpt::Hpt(Addr table_base, unsigned num_buckets)
    : tableBase_(table_base), numBuckets_(num_buckets),
      heads_(num_buckets, noEntry), busy_(num_buckets),
      overflowCursor_(table_base + tableBytes())
{
    fatalIf(!isPowerOf2(num_buckets), "HPT buckets must be a power of 2");
    fatalIf(table_base & (entryBytes - 1),
            "HPT base must be entry aligned");
}

unsigned
Hpt::bucketOf(Addr key) const
{
    Addr h = key * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return static_cast<unsigned>(h & (numBuckets_ - 1));
}

Addr
Hpt::allocOverflowEntry()
{
    if (!overflowFree_.empty()) {
        const Addr a = overflowFree_.back();
        overflowFree_.pop_back();
        return a;
    }
    const Addr a = overflowCursor_;
    overflowCursor_ += entryBytes;
    return a;
}

unsigned
Hpt::newEntry(Addr key, const VmMapping &mapping, Addr entry_addr)
{
    unsigned i = freeEntry_;
    if (i != noEntry) {
        freeEntry_ = pool_[i].next;
    } else {
        i = static_cast<unsigned>(pool_.size());
        pool_.emplace_back();
    }
    pool_[i] = {key, mapping, entry_addr, noEntry};
    return i;
}

void
Hpt::append(unsigned b, unsigned tail, unsigned entry)
{
    (tail == noEntry ? heads_[b] : pool_[tail].next) = entry;
    busy_.set(b);
    ++liveEntries_;
}

std::optional<VmMapping>
Hpt::lookup(Addr vaddr, unsigned asid,
            std::vector<Addr> &probe_addrs) const
{
    probe_addrs.clear();
    const Addr key = keyFor(pageFrame(vaddr), asid);
    const unsigned b = bucketOf(key);

    if (heads_[b] == noEntry) {
        // The handler still reads the empty head slot.
        probe_addrs.push_back(tableBase_ + Addr{b} * entryBytes);
        return std::nullopt;
    }
    for (unsigned i = heads_[b]; i != noEntry; i = pool_[i].next) {
        const Entry &entry = pool_[i];
        probe_addrs.push_back(entry.entryAddr);
        if (entry.key == key)
            return entry.mapping;
    }
    return std::nullopt;
}

void
Hpt::insertOne(Addr key, const VmMapping &mapping,
               std::vector<Addr> &touched)
{
    const unsigned b = bucketOf(key);

    // Replace an existing entry for the same base page if present.
    unsigned tail = noEntry;
    for (unsigned i = heads_[b]; i != noEntry; i = pool_[i].next) {
        Entry &entry = pool_[i];
        if (entry.key == key) {
            entry.mapping = mapping;
            touched.push_back(entry.entryAddr);
            return;
        }
        tail = i;
    }

    Addr entry_addr;
    if (tail == noEntry) {
        entry_addr = tableBase_ + Addr{b} * entryBytes;
    } else {
        entry_addr = allocOverflowEntry();
        // Linking in also rewrites the predecessor's chain pointer.
        touched.push_back(pool_[tail].entryAddr);
    }
    touched.push_back(entry_addr);
    append(b, tail, newEntry(key, mapping, entry_addr));
}

void
Hpt::removeOne(Addr key, unsigned size_class, std::vector<Addr> &touched)
{
    const unsigned b = bucketOf(key);
    unsigned prev = noEntry;
    for (unsigned i = heads_[b]; i != noEntry; prev = i, i = pool_[i].next) {
        Entry &entry = pool_[i];
        touched.push_back(entry.entryAddr);
        if (entry.key != key || entry.mapping.sizeClass != size_class)
            continue;
        // Unlinking rewrites this slot (or the predecessor's pointer);
        // freed overflow slots are recycled. The head slot is fixed
        // table storage, so when the head dies the next entry is
        // copied into it (classic open-chain HPT).
        const unsigned next = entry.next;
        if (prev != noEntry) {
            overflowFree_.push_back(entry.entryAddr);
            pool_[prev].next = next;
        } else {
            heads_[b] = next;
            if (next != noEntry) {
                overflowFree_.push_back(pool_[next].entryAddr);
                pool_[next].entryAddr = entry.entryAddr;
            } else {
                busy_.reset(b);
            }
        }
        entry.next = freeEntry_;
        freeEntry_ = i;
        --liveEntries_;
        return;
    }
}

void
Hpt::insert(const VmMapping &mapping, unsigned asid,
            std::vector<Addr> &touched)
{
    const unsigned c = mapping.sizeClass;
    fatalIf(c >= numPageSizeClasses, "bad size class");
    const Addr size = pageSizeForClass(c);
    fatalIf(mapping.vbase & (size - 1),
            "HPT mapping base not aligned to its page size");

    // One replica per base page (PA-RISC-style base-grain hashing).
    const Addr n_pages = size >> basePageShift;
    const Addr key0 = keyFor(pageFrame(mapping.vbase), asid);
    for (Addr i = 0; i < n_pages; ++i)
        insertOne(key0 + i, mapping, touched);
}

void
Hpt::insertBasePageReplica(const VmMapping &mapping, Addr vaddr,
                           unsigned asid, std::vector<Addr> &touched)
{
    fatalIf(vaddr < mapping.vbase ||
                vaddr >= mapping.vbase + pageSizeForClass(
                                             mapping.sizeClass),
            "replica address outside the mapping");
    insertOne(keyFor(pageFrame(vaddr), asid), mapping, touched);
}

void
Hpt::remove(Addr vbase, unsigned size_class, unsigned asid,
            std::vector<Addr> &touched)
{
    fatalIf(size_class >= numPageSizeClasses, "bad size class");
    const Addr n_pages = pageSizeForClass(size_class) >> basePageShift;
    const Addr key0 = keyFor(pageFrame(vbase), asid);
    for (Addr i = 0; i < n_pages; ++i)
        removeOne(key0 + i, size_class, touched);
}

} // namespace mtlbsim
