#include "mtlb/mtlb.hh"

#include "base/debug.hh"

namespace mtlbsim
{

Mtlb::Mtlb(const MtlbConfig &config, ShadowTable &table,
           stats::StatGroup &parent)
    : config_(config), table_(table),
      statGroup_("mtlb"),
      hits_(statGroup_.addScalar("hits", "MTLB hits")),
      misses_(statGroup_.addScalar("misses",
                                   "MTLB misses (hardware table fills)")),
      faults_(statGroup_.addScalar("faults",
                                   "accesses to invalid shadow mappings")),
      purges_(statGroup_.addScalar("purges", "OS purge operations")),
      bitWriteBacks_(statGroup_.addScalar("bit_write_backs",
                                          "R/M bit write-backs to the "
                                          "table"))
{
    fatalIf(config.numEntries == 0, "MTLB must have entries");
    fatalIf(config.associativity == 0, "MTLB associativity must be >= 1");
    fatalIf(config.numEntries % config.associativity != 0,
            "MTLB entries must divide evenly into sets");
    numSets_ = config.numEntries / config.associativity;
    fatalIf(!isPowerOf2(numSets_),
            "MTLB set count must be a power of 2, got ", numSets_);
    entries_.resize(config.numEntries);
    parent.addChild(&statGroup_);
}

Mtlb::Entry *
Mtlb::findEntry(Addr spi)
{
    const unsigned set = setOf(spi);
    for (unsigned w = 0; w < config_.associativity; ++w) {
        Entry &e = entries_[set * config_.associativity + w];
        if (e.valid && e.spi == spi)
            return &e;
    }
    return nullptr;
}

Mtlb::Entry &
Mtlb::victimIn(unsigned set)
{
    Entry *base = &entries_[set * config_.associativity];

    // Prefer an invalid way.
    for (unsigned w = 0; w < config_.associativity; ++w) {
        if (!base[w].valid)
            return base[w];
    }
    // NRU within the set: first unreferenced way; if all referenced,
    // clear the set's reference bits and take way 0.
    for (unsigned w = 0; w < config_.associativity; ++w) {
        if (!base[w].referenced)
            return base[w];
    }
    for (unsigned w = 0; w < config_.associativity; ++w)
        base[w].referenced = false;
    return base[0];
}

void
Mtlb::writeBackBits(Entry &entry)
{
    if (!entry.dirtyBits)
        return;
    const ShadowPte &tpte = table_.entry(entry.spi);
    table_.setReferenced(entry.spi,
                         tpte.referenced || entry.pte.referenced);
    table_.setModified(entry.spi, tpte.modified || entry.pte.modified);
    entry.dirtyBits = false;
    ++bitWriteBacks_;
}

void
Mtlb::applyAccessBits(Entry &entry, MtlbAccess kind)
{
    if (kind == MtlbAccess::SharedFill) {
        if (!entry.pte.referenced) {
            entry.pte.referenced = 1;
            entry.dirtyBits = true;
        }
    } else {
        // Exclusive fills and write-backs both imply the page will be
        // (or has been) modified, and a modified page was necessarily
        // referenced.
        if (!entry.pte.referenced || !entry.pte.modified) {
            entry.pte.referenced = 1;
            entry.pte.modified = 1;
            entry.dirtyBits = true;
        }
    }
    if (entry.dirtyBits && config_.writeBackAccessBits)
        writeBackBits(entry);
}

MtlbResult
Mtlb::translate(Addr spi, MtlbAccess kind)
{
    MtlbResult result;

    Entry *entry = findEntry(spi);
    if (entry) {
        ++hits_;
        result.hit = true;
    } else {
        ++misses_;
        debugPrintf(debug::Flag::Mtlb, "miss spi=0x", std::hex, spi,
                    " (hardware fill)");
        // Hardware fill: one uncached DRAM read of the table entry.
        result.tableReads = 1;
        const unsigned set = setOf(spi);
        Entry &victim = victimIn(set);
        if (victim.valid)
            writeBackBits(victim);
        victim.valid = true;
        victim.spi = spi;
        victim.pte = table_.entry(spi);
        victim.dirtyBits = false;
        entry = &victim;
    }

    entry->referenced = true;

    if (!entry->pte.valid) {
        // Backing base page is not present: the MMC must raise a
        // precise fault to the CPU (§4). Mark the fault bit so the
        // OS can distinguish this from a real parity error.
        ++faults_;
        debugPrintf(debug::Flag::Mtlb, "fault spi=0x", std::hex, spi,
                    " (backing page absent)");
        if (!entry->pte.fault) {
            entry->pte.fault = 1;
            table_.markFault(spi);
        }
        result.fault = true;
        return result;
    }

    applyAccessBits(*entry, kind);
    result.realPfn = entry->pte.realPfn;
    return result;
}

void
Mtlb::purge(Addr spi)
{
    ++purges_;
    Entry *entry = findEntry(spi);
    if (entry) {
        writeBackBits(*entry);
        entry->valid = false;
        entry->referenced = false;
    }
}

void
Mtlb::purgeAll()
{
    ++purges_;
    for (auto &e : entries_) {
        if (e.valid) {
            writeBackBits(e);
            e.valid = false;
            e.referenced = false;
        }
    }
}

void
Mtlb::syncAccessBits()
{
    for (auto &e : entries_) {
        if (e.valid)
            writeBackBits(e);
    }
}

std::vector<Mtlb::AuditEntry>
Mtlb::auditState() const
{
    std::vector<AuditEntry> resident;
    for (const Entry &e : entries_) {
        if (e.valid)
            resident.push_back({e.spi, e.pte, e.dirtyBits});
    }
    return resident;
}

} // namespace mtlbsim
