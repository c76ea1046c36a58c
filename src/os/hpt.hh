/**
 * @file
 * HP PA-RISC-style hashed page table (HPT) model.
 *
 * The paper's TLB misses are handled by a software trap routine that
 * probes a 16 K-entry virtual-to-physical hash table with 16-byte
 * entries (§3.2), following the hashed-page-table organisation of
 * Huck & Hays [10]. The table is a kernel data structure in ordinary
 * cacheable memory — so HPT probes compete with application data for
 * cache space, which the paper calls out as a real effect (§3.5).
 *
 * The table is hashed at base-page granularity, as PA-RISC's is:
 * a superpage mapping is entered once per base page it covers, each
 * replica carrying the full superpage mapping. The miss handler
 * therefore performs exactly one hash + chain walk regardless of
 * which page sizes are in use; the cost of replication is paid at
 * remap() time, where it is part of the paper's "remaining overhead"
 * (§3.3).
 *
 * This class models both the *content* (so lookups return the right
 * mapping) and the *addresses touched* (so the cache and memory
 * system see the handler's loads). Chained overflow entries live in
 * a kernel pool after the main table.
 */

#ifndef MTLBSIM_OS_HPT_HH
#define MTLBSIM_OS_HPT_HH

#include <optional>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "tlb/tlb.hh"

namespace mtlbsim
{

/** A translation as stored by the OS (input to TLB inserts). */
struct VmMapping
{
    Addr vbase = 0;
    Addr pbase = 0;         ///< real or shadow physical base
    unsigned sizeClass = 0;
    PageProtection prot;
};

/**
 * The hashed page table.
 */
class Hpt
{
  public:
    /**
     * @param table_base  kernel physical address of bucket 0
     * @param num_buckets bucket count (power of 2; 16 K in §3.2)
     */
    Hpt(Addr table_base, unsigned num_buckets);

    /**
     * Probe for a translation of @p vaddr in address space @p asid
     * (single hash, one chain walk — page-size independent).
     *
     * @param probe_addrs cleared, then given the kernel address of
     *        every 16-byte entry the handler examined, in order. The
     *        miss handler passes one buffer it reuses, so a probe
     *        allocates no host memory.
     * @return the mapping found, if any
     */
    std::optional<VmMapping> lookup(Addr vaddr, unsigned asid,
                                    std::vector<Addr> &probe_addrs) const;

    /**
     * Insert a mapping, replicating one entry per base page it
     * covers. @return kernel addresses written, for cost accounting.
     */
    std::vector<Addr> insert(const VmMapping &mapping,
                             unsigned asid = 0);

    /**
     * Insert only the replica for the single base page containing
     * @p vaddr (used by remap()'s per-page loop so costs accrue
     * per page). @return kernel addresses written.
     */
    std::vector<Addr> insertBasePageReplica(const VmMapping &mapping,
                                            Addr vaddr,
                                            unsigned asid = 0);

    /**
     * Remove the mapping with this base and size class (all its
     * replicas). @return kernel addresses touched.
     */
    std::vector<Addr> remove(Addr vbase, unsigned size_class,
                             unsigned asid = 0);

    /** One live entry as seen by the invariant auditor. */
    struct AuditEntry
    {
        Addr vpn = 0;       ///< base-page virtual page number (key)
        unsigned asid = 0;  ///< owning address space
        VmMapping mapping;  ///< the (possibly superpage) mapping
    };

    /** Snapshot of every live entry, replicas included, for the
     *  invariant auditor (src/check). */
    std::vector<AuditEntry> auditState() const;

    Addr tableBase() const { return tableBase_; }

    /** Bytes of the main bucket array (16 B per bucket). */
    Addr tableBytes() const { return Addr{numBuckets_} * entryBytes; }

    /** Number of live entries (replicas counted individually). */
    std::size_t size() const { return liveEntries_; }

    static constexpr Addr entryBytes = 16;

    /**
     * Chain keys carry the owning address space above the VPN: the
     * simulated space is 32-bit, so base-page VPNs fit in 20 bits and
     * the ASID sits safely at bit 40. ASID 0 keys therefore equal the
     * raw VPN, keeping single-process machines bit-identical.
     */
    static constexpr unsigned asidKeyShift = 40;

    static Addr
    keyFor(Addr vpn, unsigned asid)
    {
        return vpn | (Addr{asid} << asidKeyShift);
    }

  private:
    /** Plants HPT corruptions the public interface cannot make
     *  (check/fault_injector.hh; test builds only). */
    friend class FaultInjector;

    struct ChainedEntry
    {
        Addr vpn;           ///< base-page virtual page number (key)
        VmMapping mapping;
        Addr entryAddr;     ///< where this entry lives in memory
    };

    unsigned bucketOf(Addr vpn) const;
    Addr allocOverflowEntry();
    std::vector<Addr> insertOne(Addr vpn, const VmMapping &mapping);
    std::vector<Addr> removeOne(Addr vpn, unsigned size_class);

    Addr tableBase_;
    unsigned numBuckets_;
    /** Per-bucket chains; element 0 occupies the in-table slot. */
    std::vector<std::vector<ChainedEntry>> chains_;
    /** Bump allocator for overflow entries (recycled via free list). */
    Addr overflowCursor_;
    std::vector<Addr> overflowFree_;
    std::size_t liveEntries_ = 0;
};

} // namespace mtlbsim

#endif // MTLBSIM_OS_HPT_HH
