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

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "check/checker.hh"
#include "stats/stats.hh"

namespace mtlbsim
{

class AddressSpace;
class Kernel;
class MemorySystem;
class PhysMap;
struct ShadowSuperpage;
class Tlb;

/**
 * The auditor. Holds references to the machine's components — not to
 * a System — so it can be assembled around any component set and the
 * check library stays independent of sim/.
 */
class TranslationAuditor
{
  public:
    TranslationAuditor(const CheckConfig &config, MemorySystem &memsys,
                       Kernel &kernel, const PhysMap &physmap,
                       stats::StatGroup &parent);

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

    std::uint64_t auditsRun() const { return audits_.value(); }
    std::uint64_t violationsFound() const { return violations_.value(); }

    /** Entries the last collect() visited, over every structure it
     *  walked: the pass's work, which follows the live translation
     *  state and the TLB geometry, not the size of memory. */
    std::uint64_t entriesVisited() const { return visited_; }

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
    void checkMemoCoherence(AuditReport &report);
    /** One TLB's memo-coherence pass. */
    void checkOneMemo(AuditReport &report, const Tlb &tlb);

    CheckConfig config_;
    MemorySystem &memsys_;
    Kernel &kernel_;
    const PhysMap &physMap_;

    /** Scratch (vbase, slot) list of one TLB's valid entries, reused
     *  across audits so periodic auditing does not allocate. */
    std::vector<std::pair<Addr, unsigned>> tlbSlots_;

    /**
     * A flat open-addressed key -> value table with linear probing,
     * reused across audits like the scratch vector above. clear()
     * sizes it to the keys the coming pass adds, so clearing and
     * probing it follow that pass's keys, never the machine's size
     * nor the largest pass so far; its storage only ever grows.
     */
    template <typename Value>
    class KeyTable
    {
      public:
        /** Empty the table, with room for @p max_keys keys. */
        void clear(std::size_t max_keys);
        /** @p key's value, value-initialized when first used. */
        Value &operator[](Addr key);
        /** @p key's value; null when it was never used. */
        Value *find(Addr key);

      private:
        /** No key is all ones: keys are frame numbers and HPT keys. */
        static constexpr Addr emptyKey = ~Addr{0};
        struct Slot
        {
            Addr key = emptyKey;
            Value value{};
        };
        std::size_t home(Addr key) const;

        std::vector<Slot> slots_;
        std::size_t mask_ = 0;  ///< this pass's slots, minus one
    };
    using KeyCounts = KeyTable<std::uint64_t>;

    /** checkShadowTable's scratch: the [first, end) shadow page
     *  ranges of the recorded superpages, and valid PTEs per real
     *  frame. */
    std::vector<std::pair<Addr, Addr>> spiRanges_;
    KeyCounts frameRefs_;
    /** checkFrameAccounting's scratch: pages per mapped frame. */
    KeyCounts frameMaps_;
    /** checkHptCoherence's scratch: entries per (vpn, asid) key, and
     *  each superpage record with the HPT replicas that match it,
     *  keyed by (first page, asid). */
    KeyCounts hptKeys_;
    struct Replicas
    {
        const ShadowSuperpage *record = nullptr;
        std::uint64_t matched = 0;
    };
    KeyTable<Replicas> replicas_;

    /** Entries the current (or last) collect() visited. */
    std::uint64_t visited_ = 0;

    stats::StatGroup statGroup_;
    stats::Scalar &audits_;
    stats::Scalar &checks_;
    stats::Scalar &violations_;
};

} // namespace mtlbsim
