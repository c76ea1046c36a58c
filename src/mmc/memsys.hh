/**
 * @file
 * The composed memory subsystem: bus + MMC (+ MTLB + DRAM).
 *
 * Implements the cache's MemBackend interface and offers the OS an
 * uncached control-operation path. All CPU-visible latencies are in
 * CPU cycles; internally the bus and MMC work in 120 MHz cycles.
 */

#pragma once

#include <functional>

#include "bus/bus.hh"
#include "cache/cache.hh"
#include "mmc/mmc.hh"

namespace mtlbsim
{

/**
 * Bus + MMC composition behind the cache.
 */
class MemorySystem : public MemBackend
{
  public:
    MemorySystem(const BusConfig &bus_config, const MmcConfig &mmc_config,
                 const PhysMap &physmap, stats::StatGroup &parent)
        : bus_(bus_config, parent), mmc_(mmc_config, physmap, parent),
          physMap_(&physmap)
    {}

    /**
     * Model the MTLB's single port (§2.2: the MTLB "is single
     * ported"). Shadow-classified operations from *different* cores
     * that arrive while the port is held serialise, each holding the
     * port for @p occupancy_cpu_cycles once granted. System enables
     * this only on multi-core MTLB machines; single-core machines
     * never call it, so the model has zero cost and zero state there
     * and their timing is unchanged.
     *
     * @param occupancy_cpu_cycles port hold time per shadow op, in
     *        CPU cycles (System converts from MtlbConfig's MMC-cycle
     *        portOccupancyCycles)
     * @param parent stats parent for the port-conflict counters
     */
    void
    enablePortModel(Cycles occupancy_cpu_cycles, stats::StatGroup &parent)
    {
        portEnabled_ = true;
        portOccupancy_ = occupancy_cpu_cycles;
        portConflicts_ = &portStats_.addScalar(
            "conflicts", "shadow operations that waited for the port");
        portConflictCycles_ = &portStats_.addScalar(
            "conflict_cycles", "CPU cycles spent waiting for the port");
        parent.addChild(&portStats_);
    }

    /** Name the core issuing subsequent traffic (port attribution).
     *  CPUs call this before memory-generating work; a no-op wiring
     *  on single-core machines. */
    void setRequester(unsigned core) { requester_ = core; }

    /**
     * Fetch a line through bus -> MMC -> DRAM -> bus.
     * If the shadow mapping has been invalidated the MMC raises a
     * precise fault; the fill still consumes its latency and
     * faulted() reports it until the next fill.
     */
    Cycles
    lineFill(Addr paddr, bool exclusive, Cycles now) override
    {
        const BusOp bus_op =
            exclusive ? BusOp::ReadExclusive : BusOp::ReadShared;
        Cycles latency = bus_.request(bus_op, now);
        if (portEnabled_ && physMap_->shadowRange().contains(paddr))
            latency += acquirePort(now + latency);

        const MmcOp op =
            exclusive ? MmcOp::ExclusiveFill : MmcOp::SharedFill;
        const MmcResult r = mmc_.service(op, paddr, now + latency);
        latency += mmcToCpuCycles(r.mmcCycles);
        lastFillFaulted_ = r.fault;

        latency += bus_.dataReturn(now + latency);
        return latency;
    }

    /**
     * Write a dirty line back. The line occupies the bus and is
     * processed by the MMC (updating MTLB dirty bits, §2.5), but the
     * CPU does not wait for the DRAM write: only bus-acceptance
     * latency is returned.
     */
    Cycles
    writeBack(Addr paddr, Cycles now) override
    {
        // The cache holds the line on the bus until the MMC accepts
        // it, so a busy MTLB port extends the visible latency too.
        Cycles latency = bus_.request(BusOp::WriteBack, now);
        if (portEnabled_ && physMap_->shadowRange().contains(paddr))
            latency += acquirePort(now + latency);
        mmc_.service(MmcOp::WriteBack, paddr, now + latency);
        return latency;
    }

    /**
     * Perform an uncached MMC control operation (§2.4): the OS's
     * kernel writes to MMC control registers to install mappings,
     * purge them, or read access bits.
     *
     * @param now current CPU-cycle time
     * @param op  callable invoked with the MMC; returns MMC-side
     *            cycles consumed
     * @return    total CPU cycles (bus + MMC)
     */
    Cycles
    controlOp(Cycles now, const std::function<Cycles(Mmc &)> &op)
    {
        Cycles latency = bus_.request(BusOp::Uncached, now);
        // Control registers live behind the MTLB's port: mapping
        // installs/purges contend with data-side translations.
        if (portEnabled_)
            latency += acquirePort(now + latency);
        latency += mmcToCpuCycles(op(mmc_));
        return latency;
    }

    /** True if the last lineFill hit an invalidated shadow mapping. */
    bool faulted() const { return lastFillFaulted_; }

    Bus &bus() { return bus_; }
    Mmc &mmc() { return mmc_; }

  private:
    /**
     * Arbitrate the single MTLB port for one shadow-classified
     * operation arriving at @p now; returns the wait, if any, before
     * the port is granted. Back-to-back operations from the same core
     * never conflict (they are serialised by that core's own clock),
     * which also makes the enabled model exact for one core.
     */
    Cycles
    acquirePort(Cycles now)
    {
        Cycles wait = 0;
        if (requester_ != portOwner_ && now < portBusyUntil_) {
            wait = portBusyUntil_ - now;
            ++*portConflicts_;
            *portConflictCycles_ += wait;
        }
        portOwner_ = requester_;
        portBusyUntil_ = now + wait + portOccupancy_;
        return wait;
    }

    Bus bus_;
    Mmc mmc_;
    const PhysMap *physMap_;
    bool lastFillFaulted_ = false;

    /** @name MTLB port arbitration (multi-core machines only) */
    /** @{ */
    bool portEnabled_ = false;
    Cycles portOccupancy_ = 0;  ///< CPU cycles a shadow op holds the port
    unsigned requester_ = 0;    ///< core issuing the current traffic
    unsigned portOwner_ = 0;    ///< core whose op last held the port
    Cycles portBusyUntil_ = 0;
    stats::StatGroup portStats_{"mtlb_port"};
    stats::Scalar *portConflicts_ = nullptr;
    stats::Scalar *portConflictCycles_ = nullptr;
    /** @} */
};

} // namespace mtlbsim
