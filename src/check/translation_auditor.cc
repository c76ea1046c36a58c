#include "check/translation_auditor.hh"

#include <algorithm>

#include "base/logging.hh"
#include "mem/physmap.hh"
#include "mmc/memsys.hh"
#include "os/kernel.hh"
#include "tlb/tlb.hh"

namespace mtlbsim
{

namespace
{

template <typename... Args>
void
violate(AuditReport &report, const char *invariant, Args &&...args)
{
    report.violations.push_back(
        {invariant, detail::buildMessage(std::forward<Args>(args)...)});
}

} // namespace

template <typename Value>
void
TranslationAuditor::KeyTable<Value>::clear(std::size_t max_keys)
{
    // At most half full, so every probe ends at an empty slot.
    std::size_t size = 16;
    while (size < 2 * max_keys)
        size *= 2;
    if (slots_.size() < size)
        slots_.resize(size);
    mask_ = size - 1;
    std::fill_n(slots_.begin(), size, Slot{});
}

template <typename Value>
std::size_t
TranslationAuditor::KeyTable<Value>::home(Addr key) const
{
    const Addr h = key * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h ^ (h >> 32)) & mask_;
}

template <typename Value>
Value &
TranslationAuditor::KeyTable<Value>::operator[](Addr key)
{
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
        Slot &s = slots_[i];
        if (s.key == emptyKey)
            s.key = key;
        if (s.key == key)
            return s.value;
    }
}

template <typename Value>
Value *
TranslationAuditor::KeyTable<Value>::find(Addr key)
{
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
        Slot &s = slots_[i];
        if (s.key == key)
            return &s.value;
        if (s.key == emptyKey)
            return nullptr;
    }
}

TranslationAuditor::TranslationAuditor(const CheckConfig &config,
                                       MemorySystem &memsys,
                                       Kernel &kernel,
                                       const PhysMap &physmap,
                                       stats::StatGroup &parent)
    : config_(config), memsys_(memsys),
      kernel_(kernel), physMap_(physmap),
      statGroup_("check"),
      audits_(statGroup_.addScalar("audits", "audit passes performed")),
      checks_(statGroup_.addScalar("checks",
                                   "invariant classes examined")),
      violations_(statGroup_.addScalar("violations",
                                       "invariant violations found"))
{
    parent.addChild(&statGroup_);
}

AuditReport
TranslationAuditor::collect()
{
    AuditReport report;
    visited_ = 0;
    // First so a missed shootdown names the cross-core invariant in
    // a panicking audit's headline (the stale entry also trips the
    // per-core tlb-coherence check below).
    checkCrossCoreCoherence(report);
    checkTlbCoherence(report);
    checkSuperpageBacking(report);
    checkShadowTable(report);
    checkFrameAccounting(report);
    checkMtlbCoherence(report);
    checkHptCoherence(report);
    checkDramGuard(report);
    checkMemoCoherence(report);
    return report;
}

void
TranslationAuditor::audit(Cycles now)
{
    ++audits_;
    AuditReport report = collect();
    checks_ += report.checksRun;
    violations_ += report.violations.size();

    if (report.clean())
        return;

    // Surface every violation before the policy fires so that a
    // panicking audit still leaves the full picture in the log.
    for (const auto &v : report.violations)
        warn("audit @", now, " [", v.invariant, "] ", v.detail);

    if (config_.panicOnViolation) {
        panic("translation audit failed at cycle ", now, ": ",
              report.violations.size(), " violation(s); first: [",
              report.violations.front().invariant, "] ",
              report.violations.front().detail);
    }
}

void
TranslationAuditor::checkCrossCoreCoherence(AuditReport &report)
{
    const unsigned cores = kernel_.numCores();
    if (cores < 2)
        return;
    ++report.checksRun;

    // The property the shootdown IPIs maintain: after any kernel
    // mutation of translation state, no core still holds the old
    // translation. Each core is checked against the process it is
    // bound to *now* — exactly what its entries must describe.
    for (unsigned c = 0; c < cores; ++c) {
        const AddressSpace &space =
            kernel_.processSpace(kernel_.coreProcess(c));
        for (const TlbEntry &e : kernel_.coreTlb(c).auditState()) {
            ++visited_;
            if (e.pinned)
                continue;
            if (const ShadowSuperpage *sp =
                    space.findSuperpage(e.vbase)) {
                if (sp->vbase != e.vbase ||
                    sp->shadowBase != e.pbase ||
                    sp->sizeClass != e.sizeClass) {
                    violate(report, "cross-core-coherence", "core ", c,
                            " holds stale entry v=0x", std::hex,
                            e.vbase, " p=0x", e.pbase,
                            " disagreeing with the live superpage "
                            "record (missed shootdown)");
                }
            } else if (e.sizeClass != 0) {
                violate(report, "cross-core-coherence", "core ", c,
                        " holds superpage entry v=0x", std::hex,
                        e.vbase,
                        " with no live superpage record (missed "
                        "shootdown)");
            } else if (!space.isPagePresent(e.vbase) ||
                       space.frameOf(e.vbase) != pageFrame(e.pbase)) {
                violate(report, "cross-core-coherence", "core ", c,
                        " holds stale entry v=0x", std::hex, e.vbase,
                        " -> frame 0x", pageFrame(e.pbase),
                        " (missed shootdown)");
            }
        }
    }
}

void
TranslationAuditor::checkTlbCoherence(AuditReport &report)
{
    ++report.checksRun;
    for (unsigned c = 0; c < kernel_.numCores(); ++c) {
        const AddressSpace &space =
            kernel_.processSpace(kernel_.coreProcess(c));
        checkOneTlb(report, kernel_.coreTlb(c), space);
    }
}

void
TranslationAuditor::checkOneTlb(AuditReport &report, const Tlb &tlb,
                                const AddressSpace &space)
{
    // The two facts Tlb::insert's scan-free base-page path rests on:
    // the lookup index maps exactly the valid entries, and no two
    // valid entries overlap.
    tlbSlots_.clear();
    for (unsigned s = 0; s < tlb.capacity(); ++s) {
        ++visited_;
        const TlbEntry &e = tlb.entryAt(s);
        if (!e.valid)
            continue;
        tlbSlots_.push_back({e.vbase, s});
        if (tlb.indexedSlot(e.vbase, e.sizeClass) !=
            static_cast<int>(s)) {
            violate(report, "tlb-coherence", "entry v=0x", std::hex,
                    e.vbase, " class ", std::dec, e.sizeClass,
                    " in slot ", s,
                    " is not reachable through the lookup index");
        }
    }
    if (tlb.indexSize() != tlbSlots_.size()) {
        violate(report, "tlb-coherence", "the lookup index holds ",
                tlb.indexSize(), " keys for ", tlbSlots_.size(),
                " valid entries");
    }
    // Aligned power-of-4 pages overlap only by nesting, so sorted by
    // base any overlap shows between neighbours.
    std::sort(tlbSlots_.begin(), tlbSlots_.end());
    for (std::size_t i = 1; i < tlbSlots_.size(); ++i) {
        const TlbEntry &prev = tlb.entryAt(tlbSlots_[i - 1].second);
        const TlbEntry &next = tlb.entryAt(tlbSlots_[i].second);
        if (prev.vbase + prev.size() > next.vbase) {
            violate(report, "tlb-coherence", "entries v=0x", std::hex,
                    prev.vbase, " class ", std::dec, prev.sizeClass,
                    " and v=0x", std::hex, next.vbase, " class ",
                    std::dec, next.sizeClass, " overlap");
        }
    }

    for (const auto &vbase_slot : tlbSlots_) {
        const TlbEntry &e = tlb.entryAt(vbase_slot.second);
        if (e.pinned)
            continue;

        const Addr size = pageSizeForClass(e.sizeClass);
        if ((e.vbase & (size - 1)) || (e.pbase & (size - 1))) {
            violate(report, "tlb-coherence", "entry v=0x", std::hex,
                    e.vbase, " p=0x", e.pbase,
                    " not aligned to its size class ", std::dec,
                    e.sizeClass);
            continue;
        }

        if (const ShadowSuperpage *sp = space.findSuperpage(e.vbase)) {
            if (sp->vbase != e.vbase || sp->shadowBase != e.pbase ||
                sp->sizeClass != e.sizeClass) {
                violate(report, "tlb-coherence", "entry v=0x", std::hex,
                        e.vbase, " p=0x", e.pbase, " class ", std::dec,
                        e.sizeClass,
                        " disagrees with the superpage record v=0x",
                        std::hex, sp->vbase, " s=0x", sp->shadowBase,
                        " class ", std::dec, sp->sizeClass);
            }
            continue;
        }

        // No shadow mapping covers this range: it must be a base page
        // mapped to the frame the OS installed.
        if (e.sizeClass != 0) {
            violate(report, "tlb-coherence", "superpage entry v=0x",
                    std::hex, e.vbase,
                    " has no address-space superpage record");
        } else if (physMap_.classify(e.pbase) != AddrKind::Real) {
            violate(report, "tlb-coherence", "entry v=0x", std::hex,
                    e.vbase, " maps non-real address 0x", e.pbase,
                    " outside any superpage");
        } else if (!space.isPagePresent(e.vbase)) {
            violate(report, "tlb-coherence", "entry v=0x", std::hex,
                    e.vbase, " maps an absent page");
        } else if (space.frameOf(e.vbase) != pageFrame(e.pbase)) {
            violate(report, "tlb-coherence", "entry v=0x", std::hex,
                    e.vbase, " maps frame 0x", pageFrame(e.pbase),
                    " but the OS installed 0x", space.frameOf(e.vbase));
        }
    }
}

void
TranslationAuditor::checkSuperpageBacking(AuditReport &report)
{
    ++report.checksRun;
    for (unsigned p = 0; p < kernel_.numProcesses(); ++p)
        checkOneSpaceBacking(report, kernel_.processSpace(p));
}

void
TranslationAuditor::checkOneSpaceBacking(AuditReport &report,
                                         const AddressSpace &space)
{
    if (!memsys_.mmc().hasMtlb()) {
        if (!space.superpages().empty()) {
            violate(report, "superpage-backing",
                    "shadow superpages recorded on a machine without "
                    "an MTLB");
        }
        return;
    }

    const ShadowTable &table = memsys_.mmc().shadowTable();

    for (const auto &[vbase, sp] : space.superpages()) {
        const Addr size = sp.size();
        if ((sp.vbase & (size - 1)) || (sp.shadowBase & (size - 1)) ||
            physMap_.classify(sp.shadowBase) != AddrKind::Shadow) {
            violate(report, "superpage-backing", "superpage v=0x",
                    std::hex, sp.vbase, " s=0x", sp.shadowBase,
                    " misaligned or outside the shadow region");
            continue;
        }

        const Addr spi0 = physMap_.shadowPageIndex(sp.shadowBase);
        for (Addr i = 0; i < sp.numBasePages(); ++i) {
            ++visited_;
            const Addr va = sp.vbase + (i << basePageShift);
            const ShadowPte &pte = table.entry(spi0 + i);
            const bool present = space.isPagePresent(va);

            if (present && !pte.valid) {
                violate(report, "superpage-backing", "present page v=0x",
                        std::hex, va, " (spi 0x", spi0 + i,
                        ") has an invalid shadow PTE");
            } else if (present &&
                       Addr{pte.realPfn} != space.frameOf(va)) {
                violate(report, "superpage-backing", "page v=0x",
                        std::hex, va, " backed by frame 0x",
                        space.frameOf(va), " but its PTE names 0x",
                        Addr{pte.realPfn});
            } else if (!present && pte.valid) {
                violate(report, "superpage-backing", "absent page v=0x",
                        std::hex, va, " (spi 0x", spi0 + i,
                        ") still has a valid shadow PTE");
            }
        }
    }
}

void
TranslationAuditor::checkShadowTable(AuditReport &report)
{
    if (!memsys_.mmc().hasMtlb())
        return;
    ++report.checksRun;

    const ShadowTable &table = memsys_.mmc().shadowTable();

    // The shadow page ranges of every process's recorded superpages
    // (the shadow region is a machine-wide resource), by first page.
    spiRanges_.clear();
    for (unsigned p = 0; p < kernel_.numProcesses(); ++p) {
        const AddressSpace &space = kernel_.processSpace(p);
        for (const auto &[vbase, sp] : space.superpages()) {
            ++visited_;
            if (physMap_.classify(sp.shadowBase) != AddrKind::Shadow)
                continue;  // reported by checkSuperpageBacking
            const Addr spi0 = physMap_.shadowPageIndex(sp.shadowBase);
            spiRanges_.push_back({spi0, spi0 + sp.numBasePages()});
        }
    }
    std::sort(spiRanges_.begin(), spiRanges_.end());

    // Valid PTEs in index order: leaked mappings and shadow-to-real
    // bijectivity. A PTE is covered when some range starting at or
    // below it ends above it; covered_end is the furthest such end.
    // frameRefs_ counts the PTEs naming each frame; only a violation
    // looks for the first of them.
    std::size_t next_range = 0;
    Addr covered_end = 0;
    frameRefs_.clear(static_cast<std::size_t>(table.numValid()));
    const auto first_naming = [&table](Addr pfn) {
        Addr first = ~Addr{0};
        table.forEachValid([&](Addr spi, const ShadowPte &pte) {
            if (pte.realPfn == pfn && first == ~Addr{0})
                first = spi;
        });
        return first;
    };
    table.forEachValid([&](Addr spi, const ShadowPte &pte) {
        ++visited_;
        for (; next_range < spiRanges_.size() &&
               spiRanges_[next_range].first <= spi;
             ++next_range) {
            covered_end =
                std::max(covered_end, spiRanges_[next_range].second);
        }
        if (spi >= covered_end) {
            violate(report, "shadow-table", "valid PTE at spi 0x",
                    std::hex, spi,
                    " outside every recorded superpage (leaked "
                    "mapping)");
        }

        const Addr pfn = pte.realPfn;
        if (pfn >= physMap_.numRealPages()) {
            violate(report, "shadow-table", "PTE at spi 0x", std::hex,
                    spi, " names frame 0x", pfn,
                    " beyond installed DRAM");
            return;
        }
        if (++frameRefs_[pfn] > 1) {
            violate(report, "shadow-table", "frame 0x", std::hex, pfn,
                    " mapped by both spi 0x", first_naming(pfn),
                    " and spi 0x", spi, " (double-mapped frame)");
        }
    });
}

void
TranslationAuditor::checkFrameAccounting(AuditReport &report)
{
    ++report.checksRun;
    const FrameAllocator &frames = kernel_.frames();
    const Addr first = frames.firstPfn();
    const Addr total = frames.numTotal();

    // The allocator refuses to free a frame outside the pool or one
    // already free, so its free set is exact by construction: only
    // the mapped frames need marks. All processes' present pages
    // together partition the pool with the free set: frames are a
    // machine-wide resource.
    std::size_t max_mapped = 0;
    for (unsigned p = 0; p < kernel_.numProcesses(); ++p)
        max_mapped += kernel_.processSpace(p).numPresentPages();
    frameMaps_.clear(max_mapped);

    Addr mapped_not_free = 0;
    for (unsigned p = 0; p < kernel_.numProcesses(); ++p) {
        const AddressSpace &space = kernel_.processSpace(p);
        space.forEachPresentPage([&](Addr vpn, Addr pfn) {
            ++visited_;
            if (pfn < first || pfn - first >= total) {
                violate(report, "frame-accounting", "page v=0x",
                        std::hex, vpn << basePageShift, " backed by 0x",
                        pfn, ", outside the user frame pool");
                return;
            }
            if (++frameMaps_[pfn] > 1) {
                violate(report, "frame-accounting", "frame 0x",
                        std::hex, pfn,
                        " backs two pages (double-mapped frame)");
            } else if (frames.isFree(pfn)) {
                violate(report, "frame-accounting", "frame 0x",
                        std::hex, pfn, " is both free and mapped at "
                        "v=0x", vpn << basePageShift);
            } else {
                ++mapped_not_free;
            }
        });
    }

    const Addr leaked = total - frames.numFree() - mapped_not_free;
    if (leaked > 0) {
        violate(report, "frame-accounting", leaked,
                " frame(s) neither free nor mapped (leaked)");
    }
}

void
TranslationAuditor::checkMtlbCoherence(AuditReport &report)
{
    if (!memsys_.mmc().hasMtlb())
        return;
    ++report.checksRun;

    const ShadowTable &table = memsys_.mmc().shadowTable();

    for (const auto &e : memsys_.mmc().mtlb().auditState()) {
        ++visited_;
        if (e.spi >= table.numEntries()) {
            violate(report, "mtlb-coherence", "resident spi 0x",
                    std::hex, e.spi, " beyond the shadow table");
            continue;
        }
        const ShadowPte &t = table.entry(e.spi);

        if (e.pte.valid != t.valid) {
            violate(report, "mtlb-coherence", "spi 0x", std::hex, e.spi,
                    " cached valid=", std::dec, unsigned{e.pte.valid},
                    " but table valid=", unsigned{t.valid},
                    " (stale MTLB entry)");
            continue;
        }
        if (e.pte.valid && e.pte.realPfn != t.realPfn) {
            violate(report, "mtlb-coherence", "spi 0x", std::hex, e.spi,
                    " cached frame 0x", Addr{e.pte.realPfn},
                    " but table names 0x", Addr{t.realPfn},
                    " (stale MTLB entry)");
            continue;
        }
        if (e.pte.fault != t.fault) {
            violate(report, "mtlb-coherence", "spi 0x", std::hex, e.spi,
                    " fault-bit mismatch with the table");
        }
        // Deferred bit write-back (§3.4): the cached copy may be
        // ahead of the table, never behind it.
        if ((t.referenced && !e.pte.referenced) ||
            (t.modified && !e.pte.modified)) {
            violate(report, "mtlb-coherence", "spi 0x", std::hex, e.spi,
                    " table R/M bits ahead of the cached copy");
        } else if (!e.dirtyBits &&
                   (e.pte.referenced != t.referenced ||
                    e.pte.modified != t.modified)) {
            violate(report, "mtlb-coherence", "spi 0x", std::hex, e.spi,
                    " R/M bits differ with no write-back pending");
        }
    }
}

void
TranslationAuditor::checkHptCoherence(AuditReport &report)
{
    ++report.checksRun;
    const unsigned nproc = kernel_.numProcesses();

    // Uniqueness and replica counts are per address space: the HPT
    // keys entries by (asid, vpn), so the audit does too. Each entry
    // adds at most one key; each superpage record is entered once, so
    // a replica matches it without a search of the address space.
    const Hpt &hpt = kernel_.hpt();
    hptKeys_.clear(hpt.size());
    std::size_t records = 0;
    for (unsigned p = 0; p < nproc; ++p)
        records += kernel_.processSpace(p).superpages().size();
    replicas_.clear(records);
    for (unsigned p = 0; p < nproc; ++p) {
        for (const auto &[vbase, sp] : kernel_.processSpace(p).superpages())
            replicas_[Hpt::keyFor(pageFrame(vbase), p)].record = &sp;
    }

    hpt.forEachEntry([&](const Hpt::AuditEntry &e) {
        ++visited_;
        if (e.asid >= nproc) {
            violate(report, "hpt-coherence", "entry for v=0x", std::hex,
                    e.vpn << basePageShift, " names asid ", std::dec,
                    e.asid, ", which no process owns");
            return;
        }
        const AddressSpace &space = kernel_.processSpace(e.asid);
        if (++hptKeys_[Hpt::keyFor(e.vpn, e.asid)] > 1) {
            violate(report, "hpt-coherence", "duplicate entry for v=0x",
                    std::hex, e.vpn << basePageShift);
            return;
        }

        const Addr size = pageSizeForClass(e.mapping.sizeClass);
        if (e.mapping.vbase & (size - 1)) {
            violate(report, "hpt-coherence", "mapping v=0x", std::hex,
                    e.mapping.vbase, " not aligned to class ", std::dec,
                    e.mapping.sizeClass);
            return;
        }
        if (e.vpn < pageFrame(e.mapping.vbase) ||
            e.vpn >= pageFrame(e.mapping.vbase) +
                         (size >> basePageShift)) {
            violate(report, "hpt-coherence", "replica v=0x", std::hex,
                    e.vpn << basePageShift, " outside its mapping v=0x",
                    e.mapping.vbase);
            return;
        }

        const AddrKind kind = physMap_.classify(e.mapping.pbase);
        if (kind == AddrKind::Shadow) {
            Replicas *r = replicas_.find(
                Hpt::keyFor(pageFrame(e.mapping.vbase), e.asid));
            if (!r || r->record->shadowBase != e.mapping.pbase ||
                r->record->sizeClass != e.mapping.sizeClass) {
                violate(report, "hpt-coherence",
                        "shadow mapping v=0x", std::hex,
                        e.mapping.vbase, " s=0x", e.mapping.pbase,
                        " has no matching superpage record");
            } else {
                ++r->matched;
            }
        } else if (kind == AddrKind::Real) {
            if (e.mapping.sizeClass != 0) {
                violate(report, "hpt-coherence",
                        "real superpage mapping v=0x", std::hex,
                        e.mapping.vbase,
                        " (the kernel only builds shadow superpages)");
                return;
            }
            const Addr va = e.vpn << basePageShift;
            if (space.findSuperpage(va) != nullptr) {
                violate(report, "hpt-coherence",
                        "stale base-page entry v=0x", std::hex, va,
                        " under a shadow mapping");
            } else if (!space.isPagePresent(va)) {
                violate(report, "hpt-coherence", "entry v=0x", std::hex,
                        va, " maps an absent page");
            } else if (space.frameOf(va) != pageFrame(e.mapping.pbase)) {
                violate(report, "hpt-coherence", "entry v=0x", std::hex,
                        va, " names frame 0x",
                        pageFrame(e.mapping.pbase),
                        " but the OS installed 0x", space.frameOf(va));
            }
        } else {
            violate(report, "hpt-coherence", "entry v=0x", std::hex,
                    e.vpn << basePageShift, " maps 0x", e.mapping.pbase,
                    ", which is neither DRAM nor shadow space");
        }
    });

    for (unsigned p = 0; p < nproc; ++p) {
        const AddressSpace &space = kernel_.processSpace(p);
        for (const auto &[vbase, sp] : space.superpages()) {
            ++visited_;
            const Addr found =
                replicas_.find(Hpt::keyFor(pageFrame(vbase), p))->matched;
            if (found != sp.numBasePages()) {
                violate(report, "hpt-coherence", "superpage v=0x",
                        std::hex, vbase, " has ", std::dec, found,
                        " of ", sp.numBasePages(), " HPT replicas");
            }
        }

        space.forEachPresentPage([&](Addr vpn, Addr) {
            ++visited_;
            if (!hptKeys_.find(Hpt::keyFor(vpn, p))) {
                violate(report, "hpt-coherence", "present page v=0x",
                        std::hex, vpn << basePageShift,
                        " unreachable through the HPT");
            }
        });
    }
}

void
TranslationAuditor::checkDramGuard(AuditReport &report)
{
    ++report.checksRun;
    const std::uint64_t escapes = memsys_.mmc().dram().shadowEscapes();
    if (escapes != 0) {
        violate(report, "dram-guard", escapes,
                " access(es) reached the DRAM array with a non-real "
                "address (shadow escape past the MTLB)");
    }
}

void
TranslationAuditor::checkMemoCoherence(AuditReport &report)
{
    ++report.checksRun;
    for (unsigned c = 0; c < kernel_.numCores(); ++c)
        checkOneMemo(report, kernel_.coreTlb(c));
}

void
TranslationAuditor::checkOneMemo(AuditReport &report, const Tlb &tlb)
{
    // The epoch-wrap discipline (Tlb::bumpTranslationEpoch): 0 marks
    // a never-filled memo entry, so a current epoch of 0 would make
    // stale entries look permanently live.
    const std::uint64_t epoch = tlb.translationEpoch();
    if (epoch == 0) {
        violate(report, "memo-coherence",
                "translation epoch is 0; the wrap guard must skip it");
    }
    for (const PageMemo::Entry &e : tlb.memo().entries) {
        ++visited_;
        // Entries are stamped from the current epoch at fill time, so
        // no stamp may run ahead of it — a from-the-future stamp looks
        // dead now yet would spring back to life when the epoch
        // catches up to it.
        if (e.epoch > epoch) {
            violate(report, "memo-coherence", "an entry is stamped with "
                    "future epoch ", e.epoch, " (current ", epoch, ")");
        }
        if (e.vpage == ~Addr{0} || e.epoch != epoch)
            continue;

        const Addr va = e.vpage << basePageShift;
        const std::optional<TlbEntry> owner = tlb.probe(va);
        if (!owner) {
            violate(report, "memo-coherence", "live entry v=0x",
                    std::hex, va, " has no covering TLB entry");
            continue;
        }
        if (pageBase(owner->translate(va)) != e.pframeBase) {
            violate(report, "memo-coherence", "live entry v=0x",
                    std::hex, va, " memoized frame base 0x",
                    e.pframeBase, " but its TLB entry translates to 0x",
                    pageBase(owner->translate(va)));
        }
        if (owner->prot.writable != e.writable) {
            violate(report, "memo-coherence", "live entry v=0x",
                    std::hex, va,
                    " writability differs from its TLB entry");
        }
        // The soundness condition for skipping the per-hit
        // referenced-bit store: a live entry's TLB entry must already
        // be marked referenced.
        if (!owner->referenced) {
            violate(report, "memo-coherence", "live entry v=0x",
                    std::hex, va,
                    " whose TLB entry has a clear referenced bit");
        }
    }
}

} // namespace mtlbsim
