#include "mmc/mmc.hh"

namespace mtlbsim
{

Mmc::Mmc(const MmcConfig &config, const PhysMap &physmap,
         stats::StatGroup &parent)
    : config_(config), physMap_(physmap),
      statGroup_("mmc"),
      dram_(config.dram, statGroup_),
      streamBuffers_(config.streamBuffers, statGroup_),
      operations_(statGroup_.addScalar("operations",
                                       "memory operations serviced")),
      shadowOps_(statGroup_.addScalar("shadow_ops",
                                      "operations to shadow addresses")),
      realOps_(statGroup_.addScalar("real_ops",
                                    "operations to real addresses")),
      faultsRaised_(statGroup_.addScalar("faults_raised",
                                         "precise faults signalled to "
                                         "the CPU")),
      controlOps_(statGroup_.addScalar("control_ops",
                                       "control-register operations")),
      opLatency_(statGroup_.addAverage("op_latency",
                                       "MMC cycles per operation"))
{
    parent.addChild(&statGroup_);

    // Arm the DRAM address guard: everything downstream of the MTLB
    // must be a real address (src/check relies on this tripwire).
    dram_.setAddressGuard(&physMap_);

    if (config_.hasMtlb) {
        const Addr shadow_pages = physMap_.numShadowPages();
        fatalIf(shadow_pages == 0,
                "MTLB configured but the physical map has no shadow "
                "region");
        // The flat table must itself fit in real memory.
        const Addr table_bytes = shadow_pages * sizeof(ShadowPte);
        fatalIf(shadowTableBase + table_bytes > physMap_.installedBytes(),
                "shadow table does not fit in installed DRAM");
        shadowTable_ =
            std::make_unique<ShadowTable>(shadow_pages, shadowTableBase);
        mtlb_ = std::make_unique<Mtlb>(config_.mtlb, *shadowTable_,
                                       statGroup_);
        // Every shadow operation is one MTLB lookup, and every fault
        // the MTLB finds is raised to the CPU.
        shadowOps_.include(mtlb_->hitStat());
        shadowOps_.include(mtlb_->missStat());
        faultsRaised_.include(mtlb_->faultStat());
    }
}

MmcResult
Mmc::service(MmcOp op, Addr paddr, Cycles)
{
    ++operations_;

    MmcResult result;
    result.mmcCycles = config_.processMmcCycles;
    if (config_.hasMtlb)
        result.mmcCycles += config_.shadowCheckMmcCycles;

    Addr effective = paddr;
    const AddrKind kind = physMap_.classify(paddr);

    switch (kind) {
      case AddrKind::Real:
        ++realOps_;
        break;

      case AddrKind::Shadow: {
        if (!config_.hasMtlb) {
            panic("shadow address 0x", std::hex, paddr,
                  " reached an MMC without an MTLB");
        }

        MtlbAccess access;
        switch (op) {
          case MmcOp::SharedFill:
          case MmcOp::UncachedRead:
            access = MtlbAccess::SharedFill;
            break;
          case MmcOp::ExclusiveFill:
          case MmcOp::UncachedWrite:
            access = MtlbAccess::ExclusiveFill;
            break;
          case MmcOp::WriteBack:
            access = MtlbAccess::WriteBack;
            break;
          default:
            panic("unhandled MMC op");
        }

        const Addr spi = physMap_.shadowPageIndex(paddr);
        const MtlbResult tr = mtlb_->translate(spi, access);
        // Each hardware table fill is one uncached DRAM read,
        // serialised ahead of the waiting access in the MMC pipeline.
        for (unsigned i = 0; i < tr.tableReads; ++i) {
            result.mmcCycles += config_.mtlbFillOverheadMmcCycles;
            result.mmcCycles +=
                dram_.tableRead(shadowTable_->entryAddr(spi));
        }

        if (tr.fault) {
            // §4: the backing base page is absent; the MMC signals a
            // precise fault (e.g. via a forced parity error) instead
            // of performing the access.
            result.fault = true;
            opLatency_.sample(result.mmcCycles);
            return result;
        }

        effective = (tr.realPfn << basePageShift) | pageOffset(paddr);
        break;
      }

      case AddrKind::Io:
        // Modelled I/O space: fixed-latency, no DRAM access.
        result.mmcCycles += 4;
        result.realAddr = paddr;
        opLatency_.sample(result.mmcCycles);
        return result;

      case AddrKind::Invalid:
        panic("access to invalid physical address 0x", std::hex, paddr);
    }

    const bool is_fill =
        op == MmcOp::SharedFill || op == MmcOp::ExclusiveFill;
    const bool is_line = is_fill || op == MmcOp::WriteBack;

    // §6: demand fills may be served from an MMC stream buffer at
    // SRAM latency. The buffers sit downstream of the MTLB, so they
    // work on real addresses and shadow-backed streams need no extra
    // translations.
    if (is_fill && streamBuffers_.enabled() &&
        streamBuffers_.lookup(effective)) {
        result.mmcCycles += streamBuffers_.config().bufferHitMmcCycles;
    } else {
        result.mmcCycles += dram_.access(effective, is_line);
    }
    // Prefetches occupy DRAM banks but do not delay the demand fill.
    if (streamBuffers_.enabled())
        streamBuffers_.drainPrefetches(
            [this](Addr pf) { dram_.access(pf, true); });
    result.realAddr = effective;

    opLatency_.sample(result.mmcCycles);
    return result;
}

Cycles
Mmc::setShadowMapping(Addr shadow_page_index, Addr real_pfn,
                      TranslationEdit &)
{
    panicIf(!config_.hasMtlb, "no MTLB to configure");
    ++controlOps_;
    shadowTable_->set(shadow_page_index, real_pfn);
    // Any stale cached translation must be purged.
    mtlb_->purge(shadow_page_index);
    // Control write + table update: processing plus one table write.
    return config_.processMmcCycles +
           dram_.tableRead(shadowTable_->entryAddr(shadow_page_index));
}

Cycles
Mmc::invalidateShadowMapping(Addr shadow_page_index, TranslationEdit &)
{
    panicIf(!config_.hasMtlb, "no MTLB to configure");
    ++controlOps_;
    mtlb_->purge(shadow_page_index);
    shadowTable_->invalidate(shadow_page_index);
    return config_.processMmcCycles +
           dram_.tableRead(shadowTable_->entryAddr(shadow_page_index));
}

Cycles
Mmc::clearShadowMapping(Addr shadow_page_index, TranslationEdit &)
{
    panicIf(!config_.hasMtlb, "no MTLB to configure");
    ++controlOps_;
    mtlb_->purge(shadow_page_index);
    shadowTable_->clear(shadow_page_index);
    return config_.processMmcCycles +
           dram_.tableRead(shadowTable_->entryAddr(shadow_page_index));
}

Cycles
Mmc::clearReferencedBit(Addr shadow_page_index)
{
    panicIf(!config_.hasMtlb, "no MTLB to maintain");
    ++controlOps_;
    mtlb_->purge(shadow_page_index);    // writes accumulated bits back
    shadowTable_->setReferenced(shadow_page_index, false);
    return config_.processMmcCycles +
           dram_.tableRead(shadowTable_->entryAddr(shadow_page_index));
}

ShadowPte
Mmc::readShadowEntry(Addr shadow_page_index)
{
    panicIf(!config_.hasMtlb, "no MTLB to read");
    ++controlOps_;
    mtlb_->syncAccessBits();
    return shadowTable_->entry(shadow_page_index);
}

} // namespace mtlbsim
