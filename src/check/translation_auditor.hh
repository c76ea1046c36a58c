/**
 * @file
 * Whole-machine translation-invariant auditor.
 *
 * Asserts the contracts that hold between the translation structures
 * whenever the machine is between operations:
 *
 *  - tlb-coherence: every CPU TLB entry agrees with the OS's
 *    address-space records (superpage entries match their
 *    ShadowSuperpage; base-page entries map the frame the OS
 *    installed). Within each TLB, valid entries never overlap and
 *    the lookup index maps exactly the valid entries — the two facts
 *    Tlb::insert's scan-free base-page path relies on.
 *  - superpage-backing: within each shadow superpage, a base page is
 *    present exactly when its shadow-table PTE is valid, and the PTE
 *    names the page's real frame. Swapped-out pages keep their TLB
 *    and HPT entries by design (§2.5) — only the PTE goes invalid.
 *  - shadow-table: valid PTEs exist only under recorded superpages
 *    (no leaked mappings) and no two PTEs name the same real frame
 *    (shadow-to-real bijectivity).
 *  - frame-accounting: the allocator's free list and the OS's
 *    present-page map partition the user frame pool — no frame is
 *    free and mapped, mapped twice, or neither (leaked).
 *  - mtlb-coherence: every resident MTLB entry matches its table
 *    PTE; cached R/M bits may run ahead of the table (§3.4's
 *    deferred write-back) but never behind, and an entry without
 *    pending bits matches exactly.
 *  - hpt-coherence: HPT entries are unique per base page, replicas
 *    lie inside their mapping, shadow mappings match superpage
 *    records (all replicas present), real mappings match installed
 *    frames, and every present page is reachable.
 *  - dram-guard: no shadow (or otherwise non-DRAM) address ever
 *    reached the DRAM array — everything downstream of the MTLB is
 *    real (§2.2).
 *  - stats-identities: accounting identities across components
 *    (cache accesses = hits + misses, MTLB lookups = MMC shadow
 *    ops, kernel trap count = TLB miss count, ...).
 *  - memo-coherence: every *live* entry of each TLB's page memo
 *    (stamped with its current translation epoch) is covered by a
 *    valid TLB entry with the same frame base and writability and a
 *    set NRU referenced bit — the property that makes skipping the
 *    per-hit referenced-bit store sound (tlb/tlb.hh PageMemo).
 *    No stamp may run ahead of the epoch, and the epoch is never 0.
 *  - cross-core-coherence (multi-core machines only): no core's TLB
 *    holds a translation that disagrees with the current mappings of
 *    the process that core is bound to — the property the kernel's
 *    shootdown IPIs exist to maintain. A missed shootdown surfaces
 *    here as a stale remote entry.
 *
 * On multi-core machines every per-TLB check runs against each
 * core's TLB (paired with the address space of the process bound to
 * that core), and the OS-side checks take the union of all
 * processes' mappings.
 */

#ifndef MTLBSIM_CHECK_TRANSLATION_AUDITOR_HH
#define MTLBSIM_CHECK_TRANSLATION_AUDITOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "check/checker.hh"
#include "stats/stats.hh"

namespace mtlbsim
{

class AddressSpace;
class Cache;
class Kernel;
class MemorySystem;
class PhysMap;
class Tlb;

/**
 * The auditor. Holds references to the machine's components — not to
 * a System — so it can be assembled around any component set and the
 * check library stays independent of sim/.
 */
class TranslationAuditor
{
  public:
    TranslationAuditor(const CheckConfig &config, Cache &cache,
                       MemorySystem &memsys, Kernel &kernel,
                       const PhysMap &physmap, stats::StatGroup &parent);

    /** Run all checks; no policy applied: callers decide whether a
     *  violation warns, panics, or is asserted on in a test. */
    AuditReport collect();

    /**
     * Run all checks and apply the configured policy: warn() every
     * violation, then panic() when panicOnViolation is set.
     *
     * @param now simulated time, for the report
     */
    void audit(Cycles now);

    const CheckConfig &config() const { return config_; }

    std::uint64_t
    auditsRun() const
    {
        return static_cast<std::uint64_t>(audits_.value());
    }
    std::uint64_t
    violationsFound() const
    {
        return static_cast<std::uint64_t>(violations_.value());
    }

  private:
    void checkCrossCoreCoherence(AuditReport &report);
    void checkTlbCoherence(AuditReport &report);
    void checkOneTlb(AuditReport &report, const Tlb &tlb,
                     const AddressSpace &space);
    void checkSuperpageBacking(AuditReport &report);
    void checkOneSpaceBacking(AuditReport &report,
                              const AddressSpace &space);
    void checkShadowTable(AuditReport &report);
    void checkFrameAccounting(AuditReport &report);
    void checkMtlbCoherence(AuditReport &report);
    void checkHptCoherence(AuditReport &report);
    void checkDramGuard(AuditReport &report);
    void checkStatsIdentities(AuditReport &report);
    void checkMemoCoherence(AuditReport &report);
    /** One TLB's memo-coherence pass. */
    void checkOneMemo(AuditReport &report, const Tlb &tlb);

    CheckConfig config_;
    Cache &cache_;
    MemorySystem &memsys_;
    Kernel &kernel_;
    const PhysMap &physMap_;

    /** Scratch mark-vector over the user frame pool, reused across
     *  audits so periodic auditing does not allocate. */
    std::vector<std::uint8_t> frameMarks_;
    /** Scratch (vbase, slot) list of one TLB's valid entries, reused
     *  the same way. */
    std::vector<std::pair<Addr, unsigned>> tlbSlots_;

    /**
     * A flat open-addressed key -> count table with linear probing,
     * reused across audits like the scratch vectors above: clear()
     * empties it in place and only ever grows it.
     */
    class KeyCounts
    {
      public:
        /** Empty the table, with room for @p max_keys keys. */
        void clear(std::size_t max_keys);
        /** Add one to @p key's count. @return the new count. */
        std::uint64_t add(Addr key);
        /** @p key's count; 0 when it was never added. */
        std::uint64_t count(Addr key) const;

      private:
        /** An empty slot has count 0. */
        struct Slot
        {
            Addr key = 0;
            std::uint64_t count = 0;
        };
        std::size_t home(Addr key) const;

        std::vector<Slot> slots_;
    };

    /** checkShadowTable's scratch: per shadow page, whether a recorded
     *  superpage covers it; per real frame, the first shadow page
     *  whose PTE names it. */
    std::vector<std::uint8_t> spiCovered_;
    std::vector<Addr> frameOwner_;
    /** checkHptCoherence's scratch: entries per (vpn, asid) key, and
     *  replicas per superpage keyed by its first page. */
    KeyCounts hptKeys_;
    KeyCounts replicas_;

    stats::StatGroup statGroup_;
    stats::Scalar &audits_;
    stats::Scalar &checks_;
    stats::Scalar &violations_;
};

} // namespace mtlbsim

#endif // MTLBSIM_CHECK_TRANSLATION_AUDITOR_HH
