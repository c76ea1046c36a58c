/**
 * @file
 * Whole-system assembly: the public entry point of the library.
 *
 * A System wires together the paper's simulated machine (§3.2):
 *
 *   CPU (240 MHz, single issue)
 *    |- unified I/D TLB (fully associative, NRU) + micro-ITLB
 *    |- 512 KB direct-mapped VIPT write-back data cache
 *    |       (perfect instruction cache)
 *   Runway-like bus (120 MHz)
 *    |- MMC (HP J-class-like) [+ MTLB + shadow table]
 *    |- DRAM
 *   Kernel (BSD-like VM: HPT miss handler, remap()/sbrk(), paging)
 *
 * Construct a System from a SystemConfig, define the process's
 * regions through kernel().addressSpace(), then drive the CPU —
 * either directly or by running one of the bundled workloads.
 */

#pragma once

#include <memory>
#include <ostream>
#include <vector>

#include "bus/bus.hh"
#include "cache/cache.hh"
#include "check/checker.hh"
#include "cpu/cpu.hh"
#include "mem/physmap.hh"
#include "mmc/memsys.hh"
#include "os/kernel.hh"
#include "stats/stats.hh"
#include "tlb/tlb.hh"

namespace mtlbsim
{

class TranslationAuditor;

/** Round-robin scheduler parameters (the multiprogramming runner,
 *  src/workloads/multiprog.*). */
struct SchedConfig
{
    /** Time slice per process, in CPU cycles. */
    Cycles quantum = 1'000'000;
    /** Full context-switch cost charged when a core rebinds to a
     *  different process: register save/restore, scheduler work, and
     *  the TLB/micro-ITLB purge the ASID-less hardware requires. */
    Cycles switchCycles = 2'000;
};

/** Top-level machine configuration. */
struct SystemConfig
{
    /** Cores sharing the bus, MMC (+ MTLB), and kernel. Each core
     *  has a private CPU, unified TLB, and micro-ITLB; kernel
     *  mutations of translation state shoot down remote cores
     *  (docs/manual.md §1, "Multi-core machines"). */
    unsigned cores = 1;
    /** Scheduler parameters for multiprogrammed runs. */
    SchedConfig sched;

    /** CPU TLB entries; the paper evaluates 64/96/128/256 (§3.4). */
    unsigned tlbEntries = 96;

    /** Present an MTLB-capable MMC with a shadow region. */
    bool mtlbEnabled = true;
    /** MTLB geometry; the default matches §3.4 (128 entries,
     *  2-way, NRU). */
    MtlbConfig mtlb;

    /** Installed DRAM (default 256 MB). */
    Addr installedBytes = Addr{256} * 1024 * 1024;
    /** Shadow region; default 512 MB at 0x80000000 (§2.2). */
    AddrRange shadow = {0x80000000, Addr{512} * 1024 * 1024};

    CacheConfig cache;
    BusConfig bus;
    DramConfig dram;
    /** MMC stream buffers (§6 future work; disabled by default). */
    StreamBufferConfig streamBuffers;
    CpuConfig cpu;
    KernelConfig kernel;
    /** Invariant auditing (src/check); off by default. */
    CheckConfig check;
};

/**
 * The assembled machine.
 */
class System
{
  public:
    /** The most cores a machine may have. Each core costs a TLB with
     *  its 32 KB page memo and a CPU, so the constructor checks the
     *  count before it builds any of them. */
    static constexpr unsigned maxCores = 64;

    explicit System(const SystemConfig &config);
    ~System();

    /** Core @p core's CPU (core 0 by default, so single-core callers
     *  read as before). */
    Cpu &cpu(unsigned core = 0) { return *at(core).cpu; }
    const Cpu &cpu(unsigned core = 0) const { return *at(core).cpu; }
    Kernel &kernel() { return *kernel_; }
    Tlb &tlb(unsigned core = 0) { return *at(core).tlb; }
    MicroItlb &uitlb(unsigned core = 0) { return *at(core).uitlb; }
    unsigned numCores() const { return config_.cores; }
    Cache &cache() { return *cache_; }
    MemorySystem &memsys() { return *memsys_; }
    const PhysMap &physmap() const { return physMap_; }
    const SystemConfig &config() const { return config_; }

    /** The statistics tree. */
    stats::StatGroup &rootStats() { return rootStats_; }

    /** The translation-invariant auditor (always constructed; the
     *  check config only gates *periodic* audits). */
    TranslationAuditor &auditor() { return *auditor_; }

    /** Run one audit pass now, applying the configured violation
     *  policy (panic or warn). */
    void audit();

    /** Dump every statistic in gem5-style text form. */
    void dumpStats(std::ostream &os) const;

    /** @name Headline metrics for the experiments */
    /** @{ */

    /** Total simulated runtime in CPU cycles: the furthest-ahead
     *  core's clock (they are equal on single-core machines). */
    Cycles
    totalCycles() const
    {
        Cycles t = 0;
        for (const Core &core : cores_)
            t = core.cpu->now() > t ? core.cpu->now() : t;
        return t;
    }

    /** Cycles spent in the TLB-miss trap handler (Fig 3's shaded
     *  fraction). */
    Cycles tlbMissCycles() const { return kernel_->tlbMissCycles(); }

    /** Fraction of runtime spent handling TLB misses. */
    double
    tlbMissFraction() const
    {
        const Cycles total = totalCycles();
        return total ? static_cast<double>(tlbMissCycles()) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Average CPU cycles per cache fill (Fig 4B's metric). */
    double avgFillLatency() const { return cache_->avgFillLatency(); }

    /** @} */

  private:
    /** One core's private machinery. Owned via unique_ptr
     *  throughout, so no raw borrowed pointers live outside the
     *  System. */
    struct Core
    {
        /** "core<N>" stats child; null for core 0, whose statistics
         *  sit directly under the root with their original names. */
        std::unique_ptr<stats::StatGroup> statGroup;
        std::unique_ptr<Tlb> tlb;
        std::unique_ptr<MicroItlb> uitlb;
        std::unique_ptr<Cpu> cpu;
    };

    const Core &
    at(unsigned core) const
    {
        panicIf(core >= cores_.size(), "no core ", core);
        return cores_[core];
    }

    SystemConfig config_;
    stats::StatGroup rootStats_;
    PhysMap physMap_;
    std::unique_ptr<MemorySystem> memsys_;
    std::unique_ptr<Cache> cache_;
    std::unique_ptr<Kernel> kernel_;
    std::vector<Core> cores_;
    std::unique_ptr<TranslationAuditor> auditor_;
};

} // namespace mtlbsim
