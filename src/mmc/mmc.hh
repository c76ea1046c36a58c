/**
 * @file
 * Main memory controller (MMC) model with optional MTLB.
 *
 * Modelled on the HP J-class memory controller (§3.2). On every
 * operation the MMC decides whether the incoming "physical" address
 * is real or shadow; with an MTLB configured this check (together
 * with a possible MTLB lookup) adds one 120 MHz MMC cycle to *every*
 * MMC operation — the paper's deliberately conservative assumption
 * (§2.2). Shadow addresses are retranslated by the MTLB, with misses
 * serviced by a hardware fill that costs one uncached DRAM read of
 * the flat shadow table.
 *
 * The OS talks to the MMC through uncached writes to control
 * registers (§2.4): installing/purging shadow mappings, setting the
 * table base, and reading back per-base-page referenced/dirty bits.
 */

#pragma once

#include <memory>
#include <optional>

#include "base/logging.hh"
#include "base/types.hh"
#include "mem/dram.hh"
#include "mem/physmap.hh"
#include "mmc/stream_buffer.hh"
#include "mtlb/mtlb.hh"
#include "mtlb/shadow_table.hh"
#include "stats/stats.hh"

namespace mtlbsim
{

class TranslationEdit;

/** MMC timing and feature configuration. */
struct MmcConfig
{
    /** Base MMC request-processing overhead (decode/queue/schedule),
     *  in MMC cycles; applies to all configurations. */
    Cycles processMmcCycles = 2;
    /** Extra MMC cycles added to every operation when an MTLB is
     *  present, for the real-vs-shadow check + possible MTLB lookup
     *  (§2.2: one cycle, conservative). */
    Cycles shadowCheckMmcCycles = 1;
    /** Additional MMC cycles a hardware MTLB table fill costs beyond
     *  the raw DRAM read: the uncached table access must serialise
     *  ahead of the waiting data access in the MMC pipeline (issue,
     *  turnaround, and re-dispatch of the stalled request). §3.5
     *  attributes the bulk of the MTLB's added fill delay to these
     *  "required DRAM accesses to perform MTLB fills". */
    Cycles mtlbFillOverheadMmcCycles = 16;
    /** Present an MTLB. When false the MMC treats shadow addresses
     *  as fatal (conventional controller). */
    bool hasMtlb = true;
    MtlbConfig mtlb;
    DramConfig dram;
    /** Optional MMC-resident stream buffers (§6 future work). */
    StreamBufferConfig streamBuffers;
};

/** Operations arriving at the MMC from the bus. */
enum class MmcOp : std::uint8_t
{
    SharedFill,     ///< read line fill
    ExclusiveFill,  ///< write line fill (intent to modify)
    WriteBack,      ///< dirty line write-back
    UncachedRead,   ///< uncached word read (control/table)
    UncachedWrite,  ///< uncached word write (control/table)
};

/** Outcome of one MMC operation. */
struct MmcResult
{
    Cycles mmcCycles = 0;   ///< total latency in MMC cycles
    bool fault = false;     ///< shadow mapping invalid (precise fault)
    Addr realAddr = 0;      ///< post-translation address serviced
};

/**
 * The main memory controller.
 */
class Mmc
{
  public:
    /**
     * @param config  timing/feature configuration
     * @param physmap the machine's physical address map
     * @param parent  stats parent
     *
     * When an MTLB is configured, the shadow table is sized to the
     * map's shadow region and placed at a fixed table base in real
     * memory (the OS would choose this; we use a constant).
     */
    Mmc(const MmcConfig &config, const PhysMap &physmap,
        stats::StatGroup &parent);

    /** Service one memory operation arriving from the bus. */
    MmcResult service(MmcOp op, Addr paddr, Cycles now_unused = 0);

    /**
     * @name OS control-register interface (§2.4)
     * These model uncached writes/reads to MMC control registers.
     * The *bus* cost of reaching the registers is charged by the
     * caller (MemorySystem::controlOp); these methods perform the
     * side effects and return the MMC-side cycle cost. The three
     * that change a mapping take the kernel's TranslationEdit
     * (os/translation_edit.hh), which retires the CPU-side
     * translations when it closes.
     * @{
     */

    /** Install shadow-page -> real-frame mapping. */
    Cycles setShadowMapping(Addr shadow_page_index, Addr real_pfn,
                            TranslationEdit &edit);

    /** Mark a shadow page's backing frame absent (swap-out). The
     *  MTLB entry is purged so subsequent accesses fault. */
    Cycles invalidateShadowMapping(Addr shadow_page_index,
                                   TranslationEdit &edit);

    /** Remove a mapping entirely (region freed). */
    Cycles clearShadowMapping(Addr shadow_page_index,
                              TranslationEdit &edit);

    /** Read back an entry with up-to-date R/M bits (syncs the MTLB's
     *  cached bits into the table first). */
    ShadowPte readShadowEntry(Addr shadow_page_index);

    /** Clear a page's referenced bit (CLOCK's hand): syncs the MTLB
     *  entry's accumulated bits, clears the table bit, and purges
     *  the MTLB entry so future fills set it afresh. */
    Cycles clearReferencedBit(Addr shadow_page_index);

    /** @} */

    bool hasMtlb() const { return config_.hasMtlb; }
    const PhysMap &physmap() const { return physMap_; }

    /** The MTLB (requires hasMtlb()). */
    Mtlb &
    mtlb()
    {
        panicIf(!mtlb_, "MMC has no MTLB configured");
        return *mtlb_;
    }

    /** The shadow table (requires hasMtlb()). */
    ShadowTable &
    shadowTable()
    {
        panicIf(!shadowTable_, "MMC has no shadow table configured");
        return *shadowTable_;
    }

    Dram &dram() { return dram_; }

    StreamBufferBank &streamBuffers() { return streamBuffers_; }

    /** Real physical address where the shadow table is placed. */
    static constexpr Addr shadowTableBase = 0x00100000;

  private:
    MmcConfig config_;
    const PhysMap &physMap_;
    stats::StatGroup statGroup_;
    Dram dram_;
    StreamBufferBank streamBuffers_;
    std::unique_ptr<ShadowTable> shadowTable_;
    std::unique_ptr<Mtlb> mtlb_;

    stats::Scalar &operations_;
    stats::Scalar &shadowOps_;
    stats::Scalar &realOps_;
    stats::Scalar &faultsRaised_;
    stats::Scalar &controlOps_;
    stats::Average &opLatency_;
};

} // namespace mtlbsim
