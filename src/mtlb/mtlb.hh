/**
 * @file
 * The Memory-Controller TLB (MTLB) — the paper's core mechanism.
 *
 * A set-associative cache of shadow-to-real page translations that
 * sits in the main memory controller (§2.2). Compared to a CPU TLB it
 * can be larger because (1) MMC timing is less aggressive, (2) it is
 * single ported, (3) it supports only one page size, and (4) it can
 * use limited associativity instead of full associativity.
 *
 * A lookup that hits translates in one MMC cycle (folded into the
 * MMC's per-operation shadow check). A miss triggers a hardware fill:
 * the fill engine computes the table entry's DRAM address from the
 * shadow page index (entry base + index*4) and performs one uncached
 * DRAM read — there is no software involvement.
 *
 * The MTLB maintains per-base-page referenced and dirty bits (§2.5):
 * a shared-line fill marks the page referenced; an exclusive fill or
 * a write-back marks it dirty. Whether updated bits are continuously
 * written back to the in-memory table is configurable; the paper's
 * simulated MTLB did not write them back (§3.4) and instead the bits
 * reach the table when an entry is purged or synced.
 */

#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "mtlb/shadow_table.hh"
#include "stats/stats.hh"

namespace mtlbsim
{

/** MTLB geometry and behaviour configuration. */
struct MtlbConfig
{
    unsigned numEntries = 128;  ///< default configuration (§3.4)
    unsigned associativity = 2; ///< 2-way set associative (§3.4)
    /** Write updated referenced/modified bits through to the
     *  in-memory table on every change. The paper's simulated MTLB
     *  left this off and predicted a negligible effect (§3.4). */
    bool writeBackAccessBits = false;
    /** MMC cycles one shadow-classified operation holds the MTLB's
     *  single port (§2.2 notes the MTLB "is single ported"). Only
     *  observable on multi-core machines, where concurrent shadow
     *  traffic from different cores serialises at the port
     *  (MemorySystem::enablePortModel); single-core machines never
     *  enable the model and are timing-identical to older builds. */
    Cycles portOccupancyCycles = 2;
};

/** What kind of request the MMC is asking the MTLB to translate. */
enum class MtlbAccess : std::uint8_t
{
    SharedFill,     ///< cache fill for a read (sets referenced)
    ExclusiveFill,  ///< cache fill with intent to write (sets dirty)
    WriteBack,      ///< dirty line arriving from the cache (sets dirty)
};

/** Result of asking the MTLB to translate a shadow page. */
struct MtlbResult
{
    bool hit = false;       ///< translation was resident
    bool fault = false;     ///< mapping invalid: backing page absent
    Addr realPfn = 0;       ///< valid when !fault
    /** Number of table-fill DRAM reads performed (0 on hit, 1 on
     *  miss; the MMC charges DRAM latency for each). */
    unsigned tableReads = 0;
};

/**
 * Set-associative MTLB with per-set NRU replacement.
 */
class Mtlb
{
  public:
    /**
     * @param config geometry
     * @param table  the in-DRAM shadow-to-physical table to fill from
     * @param parent stats parent
     */
    Mtlb(const MtlbConfig &config, ShadowTable &table,
         stats::StatGroup &parent);

    /**
     * Translate shadow page index @p spi for an access of kind
     * @p kind, filling from the table on a miss.
     */
    MtlbResult translate(Addr spi, MtlbAccess kind);

    /**
     * OS purge of a single mapping (uncached control-register write,
     * §2.4). Accumulated referenced/modified bits are written back to
     * the table so the OS sees them.
     */
    void purge(Addr spi);

    /** Purge everything, writing accumulated bits back. */
    void purgeAll();

    /** Write all resident entries' access bits back to the table
     *  without invalidating (used by the OS before reading bits). */
    void syncAccessBits();

    /** One resident translation as seen by the invariant auditor. */
    struct AuditEntry
    {
        Addr spi = 0;           ///< shadow page index (tag)
        ShadowPte pte;          ///< cached copy of the table entry
        bool dirtyBits = false; ///< R/M bits newer than the table's
    };

    /** Snapshot of every resident entry, for the invariant auditor
     *  (src/check). Does not touch replacement state or statistics. */
    std::vector<AuditEntry> auditState() const;

    unsigned numSets() const { return numSets_; }
    const MtlbConfig &config() const { return config_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t faults() const { return faults_.value(); }

    /** @name The counters the MMC's shadow-operation and raised-fault
     *  counts include */
    /** @{ */
    const stats::Scalar *hitStat() const { return &hits_; }
    const stats::Scalar *missStat() const { return &misses_; }
    const stats::Scalar *faultStat() const { return &faults_; }
    /** @} */

    double
    hitRate() const
    {
        const std::uint64_t hits = hits_.value();
        const std::uint64_t total = hits + misses_.value();
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }

  private:
    struct Entry
    {
        bool valid = false;
        bool referenced = false;    ///< NRU bit (replacement state)
        Addr spi = 0;               ///< shadow page index (the tag)
        ShadowPte pte;              ///< cached table entry
        bool dirtyBits = false;     ///< pte R/M bits newer than table
    };

    unsigned setOf(Addr spi) const { return spi & (numSets_ - 1); }
    Entry *findEntry(Addr spi);
    Entry &victimIn(unsigned set);
    void writeBackBits(Entry &entry);
    void applyAccessBits(Entry &entry, MtlbAccess kind);

    MtlbConfig config_;
    ShadowTable &table_;
    unsigned numSets_;
    std::vector<Entry> entries_;    ///< numSets_ * associativity

    stats::StatGroup statGroup_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
    stats::Scalar &faults_;
    stats::Scalar &purges_;
    stats::Scalar &bitWriteBacks_;
};

} // namespace mtlbsim
