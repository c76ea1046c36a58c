#include "bus/bus.hh"

namespace mtlbsim
{

Bus::Bus(const BusConfig &config, stats::StatGroup &parent)
    : config_(config),
      statGroup_("bus"),
      transactions_(statGroup_.addScalar("transactions",
                                         "bus transactions issued")),
      requests_(statGroup_.addScalar("requests",
                                     "request-phase transactions")),
      dataReturns_(statGroup_.addScalar("data_returns",
                                        "fill data-return transactions")),
      queueCycles_(statGroup_.addScalar("queue_cycles",
                                        "CPU cycles spent queued for the "
                                        "bus")),
      busyCycles_(statGroup_.addScalar("busy_cycles",
                                       "CPU cycles the bus was occupied"))
{
    // Every transaction is one request phase.
    requests_.include(&transactions_);
    parent.addChild(&statGroup_);
}

Cycles
Bus::occupy(Cycles now, Cycles bus_cycles)
{
    const Cycles duration = mmcToCpuCycles(bus_cycles);
    Cycles queue = 0;
    if (busyUntil_ > now)
        queue = busyUntil_ - now;
    busyUntil_ = now + queue + duration;

    queueCycles_ += queue;
    busyCycles_ += duration;
    return queue + duration;
}

Cycles
Bus::request(BusOp op, Cycles now)
{
    ++transactions_;
    Cycles bus_cycles = config_.arbitrationCycles + config_.addressCycles;
    if (op == BusOp::WriteBack)
        bus_cycles += config_.lineDataCycles;
    else if (op == BusOp::Uncached)
        bus_cycles += 1;  // one word of payload
    return occupy(now, bus_cycles);
}

Cycles
Bus::dataReturn(Cycles now)
{
    // Data returns are phases of an already-counted transaction; they
    // are tracked separately so the auditor can cross-check them
    // against cache fills without disturbing `transactions`.
    ++dataReturns_;
    return occupy(now, config_.lineDataCycles);
}

} // namespace mtlbsim
