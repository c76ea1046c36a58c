#include "os/hpt.hh"

#include "base/intmath.hh"

namespace mtlbsim
{

Hpt::Hpt(Addr table_base, unsigned num_buckets)
    : tableBase_(table_base), numBuckets_(num_buckets),
      chains_(num_buckets), busy_(num_buckets),
      overflowCursor_(table_base + tableBytes())
{
    fatalIf(!isPowerOf2(num_buckets), "HPT buckets must be a power of 2");
    fatalIf(table_base & (entryBytes - 1),
            "HPT base must be entry aligned");
}

unsigned
Hpt::bucketOf(Addr vpn) const
{
    Addr h = vpn * 0x9e3779b97f4a7c15ULL;
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

std::optional<VmMapping>
Hpt::lookup(Addr vaddr, unsigned asid,
            std::vector<Addr> &probe_addrs) const
{
    probe_addrs.clear();
    const Addr vpn = keyFor(pageFrame(vaddr), asid);
    const auto &chain = chains_[bucketOf(vpn)];

    if (chain.empty()) {
        // The handler still reads the empty head slot.
        probe_addrs.push_back(tableBase_ +
                              Addr{bucketOf(vpn)} * entryBytes);
        return std::nullopt;
    }
    for (const auto &entry : chain) {
        probe_addrs.push_back(entry.entryAddr);
        if (entry.vpn == vpn)
            return entry.mapping;
    }
    return std::nullopt;
}

std::vector<Addr>
Hpt::insertOne(Addr vpn, const VmMapping &mapping)
{
    const unsigned b = bucketOf(vpn);
    auto &chain = chains_[b];

    std::vector<Addr> touched;

    // Replace an existing entry for the same base page if present.
    for (auto &entry : chain) {
        if (entry.vpn == vpn) {
            entry.mapping = mapping;
            touched.push_back(entry.entryAddr);
            return touched;
        }
    }

    ChainedEntry entry;
    entry.vpn = vpn;
    entry.mapping = mapping;
    if (chain.empty()) {
        entry.entryAddr = tableBase_ + Addr{b} * entryBytes;
    } else {
        entry.entryAddr = allocOverflowEntry();
        // Linking in also rewrites the predecessor's chain pointer.
        touched.push_back(chain.back().entryAddr);
    }
    touched.push_back(entry.entryAddr);
    chain.push_back(entry);
    busy_.set(b);
    ++liveEntries_;
    return touched;
}

std::vector<Addr>
Hpt::removeOne(Addr vpn, unsigned size_class)
{
    const unsigned b = bucketOf(vpn);
    auto &chain = chains_[b];

    std::vector<Addr> touched;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        touched.push_back(chain[i].entryAddr);
        if (chain[i].vpn == vpn &&
            chain[i].mapping.sizeClass == size_class) {
            // Unlinking rewrites this slot (or the predecessor's
            // pointer); freed overflow slots are recycled. The head
            // slot is fixed table storage, so when the head dies the
            // next entry is copied into it (classic open-chain HPT).
            if (i == 0 && chain.size() > 1) {
                overflowFree_.push_back(chain[1].entryAddr);
                chain[1].entryAddr = chain[0].entryAddr;
            } else if (i > 0) {
                overflowFree_.push_back(chain[i].entryAddr);
            }
            chain.erase(chain.begin() + static_cast<long>(i));
            if (chain.empty())
                busy_.reset(b);
            --liveEntries_;
            return touched;
        }
    }
    return touched;
}

std::vector<Addr>
Hpt::insert(const VmMapping &mapping, unsigned asid)
{
    const unsigned c = mapping.sizeClass;
    fatalIf(c >= numPageSizeClasses, "bad size class");
    const Addr size = pageSizeForClass(c);
    fatalIf(mapping.vbase & (size - 1),
            "HPT mapping base not aligned to its page size");

    // One replica per base page (PA-RISC-style base-grain hashing).
    std::vector<Addr> touched;
    const Addr n_pages = size >> basePageShift;
    const Addr vpn0 = keyFor(pageFrame(mapping.vbase), asid);
    for (Addr i = 0; i < n_pages; ++i) {
        auto t = insertOne(vpn0 + i, mapping);
        touched.insert(touched.end(), t.begin(), t.end());
    }
    return touched;
}

std::vector<Addr>
Hpt::insertBasePageReplica(const VmMapping &mapping, Addr vaddr,
                           unsigned asid)
{
    fatalIf(vaddr < mapping.vbase ||
                vaddr >= mapping.vbase + pageSizeForClass(
                                             mapping.sizeClass),
            "replica address outside the mapping");
    return insertOne(keyFor(pageFrame(vaddr), asid), mapping);
}

std::vector<Addr>
Hpt::remove(Addr vbase, unsigned size_class, unsigned asid)
{
    fatalIf(size_class >= numPageSizeClasses, "bad size class");
    std::vector<Addr> touched;
    const Addr n_pages = pageSizeForClass(size_class) >> basePageShift;
    const Addr vpn0 = keyFor(pageFrame(vbase), asid);
    for (Addr i = 0; i < n_pages; ++i) {
        auto t = removeOne(vpn0 + i, size_class);
        touched.insert(touched.end(), t.begin(), t.end());
    }
    return touched;
}

} // namespace mtlbsim
