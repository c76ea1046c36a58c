/**
 * @file
 * Physical address map: installed DRAM, the shadow region, I/O holes.
 *
 * The paper (§1, §2.1) exploits the gap between the physical address
 * range a processor can emit and the DRAM actually installed. The
 * region of "physical" addresses above installed memory is handed out
 * as shadow superpages; the MMC retranslates accesses to it. Memory-
 * mapped I/O ranges must not be treated as shadow addresses (§2.1),
 * which the paper handles with a legal-shadow-region mask; we model
 * explicit I/O holes that classification checks against.
 */

#pragma once

#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace mtlbsim
{

/** Classification of a physical address emitted by the CPU. */
enum class AddrKind : std::uint8_t
{
    Real,       ///< backed by installed DRAM
    Shadow,     ///< inside the configured shadow region
    Io,         ///< memory-mapped I/O hole
    Invalid,    ///< neither DRAM, shadow, nor I/O
};

/** A half-open [base, base+size) physical address range. */
struct AddrRange
{
    Addr base = 0;
    Addr size = 0;

    bool
    contains(Addr a) const
    {
        return a >= base && a - base < size;
    }

    Addr end() const { return base + size; }
};

/**
 * The machine's physical address map.
 *
 * Mirrors the paper's running example (§2.2): e.g. 32 exported address
 * bits, 1 GB of DRAM at physical 0, and 512 MB of shadow space at
 * 0x80000000.
 */
class PhysMap
{
  public:
    /**
     * @param installed_bytes bytes of real DRAM, starting at address 0
     * @param shadow          shadow-region range (may be empty)
     * @param addr_bits       physical address bits the CPU exports
     */
    PhysMap(Addr installed_bytes, AddrRange shadow, unsigned addr_bits = 32);

    /** Classify a physical address (fast path: two compares). */
    AddrKind
    classify(Addr a) const
    {
        if (a < installedBytes_)
            return AddrKind::Real;
        if (shadow_.contains(a))
            return inIoHole(a) ? AddrKind::Io : AddrKind::Shadow;
        return inIoHole(a) ? AddrKind::Io : AddrKind::Invalid;
    }

    /** Carve an I/O hole out of the map (must not overlap DRAM). */
    void addIoHole(AddrRange range);

    Addr installedBytes() const { return installedBytes_; }
    const AddrRange &shadowRange() const { return shadow_; }

    /** Number of base pages of installed DRAM. */
    Addr numRealPages() const { return installedBytes_ >> basePageShift; }

    /** Number of base pages in the shadow region. */
    Addr numShadowPages() const { return shadow_.size >> basePageShift; }

    /** Index of a shadow address's page within the shadow region. */
    Addr
    shadowPageIndex(Addr a) const
    {
        panicIf(!shadow_.contains(a), "address not in shadow region");
        return (a - shadow_.base) >> basePageShift;
    }

  private:
    bool
    inIoHole(Addr a) const
    {
        for (const auto &hole : ioHoles_) {
            if (hole.contains(a))
                return true;
        }
        return false;
    }

    Addr installedBytes_;
    AddrRange shadow_;
    std::vector<AddrRange> ioHoles_;
};

} // namespace mtlbsim
