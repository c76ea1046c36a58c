/**
 * @file
 * DRAM timing model with per-bank open-row tracking.
 *
 * The MMC in the paper is modelled on the HP 9000 J-class memory
 * controller [Hotchkiss et al. 96]. We model a small number of
 * interleaved banks, each with one open row: an access to the open
 * row costs the row-hit latency, otherwise the row-miss latency.
 * All latencies are in 120 MHz MMC cycles; callers convert to CPU
 * cycles at the boundary.
 */

#pragma once

#include <vector>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "mem/physmap.hh"
#include "stats/stats.hh"

namespace mtlbsim
{

/** Configuration for the DRAM timing model. */
struct DramConfig
{
    unsigned numBanks = 4;          ///< interleaved banks (power of 2)
    Addr rowBytes = 4096;           ///< row-buffer size per bank
    Cycles rowHitMmcCycles = 4;     ///< CAS-only access
    Cycles rowMissMmcCycles = 8;    ///< precharge + RAS + CAS
    /** MMC cycles to burst one 32-byte cache line over the array bus. */
    Cycles burstMmcCycles = 4;
};

/**
 * Cycle-cost DRAM model. Stateless except for open-row registers,
 * so a single instance can be shared by all requesters behind the
 * MMC's single port.
 */
class Dram
{
  public:
    Dram(const DramConfig &config, stats::StatGroup &parent);

    /**
     * Access one cache line (or a table entry) at @p addr.
     * @param is_line_fill true for full-line transfers (adds burst)
     * @return latency in MMC cycles
     */
    Cycles access(Addr addr, bool is_line_fill);

    /** Latency of a minimal (non-burst) access, e.g. an MTLB table
     *  fill read; equivalent to access(addr, false). */
    Cycles tableRead(Addr addr) { return access(addr, false); }

    /**
     * Arm the address guard: every subsequent access is classified
     * against @p map, and any address that is not installed DRAM
     * (a shadow address that escaped MTLB translation, or garbage)
     * is counted in shadowEscapes(). The MMC arms this; the
     * invariant auditor (src/check) asserts the count stays zero.
     */
    void setAddressGuard(const PhysMap *map) { physMap_ = map; }

    /** Accesses whose address was not installed DRAM. */
    std::uint64_t
    shadowEscapes() const
    {
        return static_cast<std::uint64_t>(shadowEscapes_.value());
    }

    const DramConfig &config() const { return config_; }

  private:
    unsigned bankOf(Addr addr) const;
    Addr rowOf(Addr addr) const;

    DramConfig config_;
    unsigned bankShift_;
    unsigned rowShift_;     ///< bankShift_ plus the bank-index bits
    std::vector<Addr> openRow_;
    const PhysMap *physMap_ = nullptr;  ///< address guard (optional)

    stats::StatGroup statGroup_;
    stats::Scalar &accesses_;
    stats::Scalar &rowHits_;
    stats::Scalar &rowMisses_;
    stats::Scalar &shadowEscapes_;
};

} // namespace mtlbsim
