/**
 * @file
 * Runway-like split-transaction system bus model.
 *
 * The paper's simulated machine uses HP's Runway bus [Bryg et al. 96]
 * clocked at 120 MHz between a 240 MHz CPU and the MMC. We model the
 * address phase (arbitration + address transfer) and the data phase
 * (a 32-byte line over a 64-bit data path = 4 bus cycles), plus
 * queueing when a new transaction arrives while the bus is busy.
 *
 * With a single in-order CPU the queueing term is small, but it is
 * modelled so that write-backs issued alongside fills contend
 * realistically.
 */

#pragma once

#include "base/types.hh"
#include "stats/stats.hh"

namespace mtlbsim
{

/** Bus timing configuration (cycles are 120 MHz bus cycles). */
struct BusConfig
{
    Cycles arbitrationCycles = 1;   ///< win arbitration
    Cycles addressCycles = 1;       ///< transmit the address
    Cycles lineDataCycles = 4;      ///< 32 B over 64-bit path
};

/** Kinds of bus transaction the cache/MMC exchange. */
enum class BusOp : std::uint8_t
{
    ReadShared,     ///< cache fill for a load
    ReadExclusive,  ///< cache fill for a store (write-allocate)
    WriteBack,      ///< dirty victim line to memory
    Uncached,       ///< uncached word access (e.g. MMC control regs)
};

/**
 * Cycle-cost bus model with a single shared channel.
 */
class Bus
{
  public:
    Bus(const BusConfig &config, stats::StatGroup &parent);

    /**
     * Occupy the bus for one transaction's request phase.
     *
     * @param op  transaction type
     * @param now current time in CPU cycles
     * @return    CPU cycles until the request has reached the MMC
     *            (queueing + arbitration + address [+ data for
     *            write-backs, which carry their payload])
     */
    Cycles request(BusOp op, Cycles now);

    /**
     * Occupy the bus for a fill's data-return phase.
     *
     * @param now current time in CPU cycles (when the MMC has data)
     * @return    CPU cycles to deliver the line to the cache
     */
    Cycles dataReturn(Cycles now);

    const BusConfig &config() const { return config_; }

  private:
    /** Occupy the channel for @p bus_cycles starting at @p now. */
    Cycles occupy(Cycles now, Cycles bus_cycles);

    BusConfig config_;
    Cycles busyUntil_ = 0;  ///< CPU-cycle time the channel frees up

    stats::StatGroup statGroup_;
    stats::Scalar &transactions_;
    stats::Scalar &requests_;
    stats::Scalar &dataReturns_;
    stats::Scalar &queueCycles_;
    stats::Scalar &busyCycles_;
};

} // namespace mtlbsim
