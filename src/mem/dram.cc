#include "mem/dram.hh"

namespace mtlbsim
{

Dram::Dram(const DramConfig &config, stats::StatGroup &parent)
    : config_(config),
      bankShift_(floorLog2(config.rowBytes)),
      rowShift_(bankShift_ + floorLog2(config.numBanks)),
      openRow_(config.numBanks, ~Addr{0}),
      statGroup_("dram"),
      accesses_(statGroup_.addScalar("accesses", "total DRAM accesses")),
      rowHits_(statGroup_.addScalar("row_hits", "open-row hits")),
      rowMisses_(statGroup_.addScalar("row_misses", "open-row misses")),
      shadowEscapes_(statGroup_.addScalar("shadow_escapes",
                                          "accesses whose address was "
                                          "not installed DRAM (must "
                                          "stay 0)"))
{
    fatalIf(!isPowerOf2(config.numBanks), "numBanks must be a power of 2");
    fatalIf(!isPowerOf2(config.rowBytes), "rowBytes must be a power of 2");
    fatalIf(config.rowHitMmcCycles == 0 || config.rowMissMmcCycles == 0,
            "DRAM latencies must be nonzero");
    accesses_.include(&rowHits_);
    accesses_.include(&rowMisses_);
    parent.addChild(&statGroup_);
}

unsigned
Dram::bankOf(Addr addr) const
{
    // Interleave consecutive rows across banks.
    return (addr >> bankShift_) & (config_.numBanks - 1);
}

Addr
Dram::rowOf(Addr addr) const
{
    return addr >> rowShift_;
}

Cycles
Dram::access(Addr addr, bool is_line_fill)
{
    // Shadow addresses must be retranslated by the MTLB before they
    // reach the array: only installed-DRAM addresses are legal here.
    if (physMap_ && physMap_->classify(addr) != AddrKind::Real)
        ++shadowEscapes_;
    const unsigned bank = bankOf(addr);
    const Addr row = rowOf(addr);

    Cycles latency;
    if (openRow_[bank] == row) {
        ++rowHits_;
        latency = config_.rowHitMmcCycles;
    } else {
        ++rowMisses_;
        latency = config_.rowMissMmcCycles;
        openRow_[bank] = row;
    }

    if (is_line_fill)
        latency += config_.burstMmcCycles;
    return latency;
}

} // namespace mtlbsim
