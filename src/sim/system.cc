#include "sim/system.hh"

#include <string>

#include "check/translation_auditor.hh"

namespace mtlbsim
{

namespace
{

/** Derive the MMC configuration from the system-level switches. */
MmcConfig
mmcConfigFrom(const SystemConfig &config)
{
    MmcConfig mmc;
    mmc.hasMtlb = config.mtlbEnabled;
    mmc.mtlb = config.mtlb;
    mmc.dram = config.dram;
    mmc.streamBuffers = config.streamBuffers;
    return mmc;
}

/** The shadow region only exists on MTLB systems. */
AddrRange
shadowRangeFrom(const SystemConfig &config)
{
    return config.mtlbEnabled ? config.shadow : AddrRange{};
}

} // namespace

System::System(const SystemConfig &config)
    : config_(config),
      rootStats_("system"),
      physMap_(config.installedBytes, shadowRangeFrom(config))
{
    fatalIf(config.cores == 0 || config.cores > maxCores,
            "a machine has 1 to ", maxCores, " cores, not ", config.cores);
    memsys_ = std::make_unique<MemorySystem>(
        config.bus, mmcConfigFrom(config), physMap_, rootStats_);
    cache_ = std::make_unique<Cache>(config.cache, *memsys_, rootStats_);

    // Core 0's TLBs register between the cache and the kernel, its
    // CPU after the kernel, all directly under the root; cores
    // 1..N-1 follow under "core<N>" children. A single-core machine's
    // statistics thus keep their exact names and order.
    cores_.resize(config.cores);
    Core &boot = cores_.front();
    boot.tlb = std::make_unique<Tlb>(config.tlbEntries, "tlb", rootStats_);
    boot.uitlb = std::make_unique<MicroItlb>(rootStats_);
    kernel_ = std::make_unique<Kernel>(config.kernel, physMap_, *cache_,
                                       *memsys_, rootStats_);
    unsigned id = 0;
    for (Core &core : cores_) {
        stats::StatGroup *group = &rootStats_;
        if (id != 0) {
            core.statGroup = std::make_unique<stats::StatGroup>(
                "core" + std::to_string(id));
            group = core.statGroup.get();
            rootStats_.addChild(group);
            core.tlb =
                std::make_unique<Tlb>(config.tlbEntries, "tlb", *group);
            core.uitlb = std::make_unique<MicroItlb>(*group);
        }
        core.cpu = std::make_unique<Cpu>(config.cpu, *core.tlb,
                                         *core.uitlb, *cache_, *memsys_,
                                         *kernel_, *group, id);
        kernel_->attachCore(*core.tlb, *core.uitlb,
                            [cpu = core.cpu.get()](Cycles n) {
                                cpu->charge(n);
                            });
        ++id;
    }
    // The MTLB's single port is only observable with rivals.
    if (config.cores > 1 && config.mtlbEnabled) {
        memsys_->enablePortModel(
            mmcToCpuCycles(config.mtlb.portOccupancyCycles), rootStats_);
    }

    // The auditor is always assembled (tests can call audit() on any
    // system); the config only decides whether the CPUs trigger it
    // periodically.
    auditor_ = std::make_unique<TranslationAuditor>(
        config.check, *memsys_, *kernel_, physMap_, rootStats_);
    if (config.check.enabled) {
        for (Core &core : cores_) {
            core.cpu->setPeriodicCheck(config.check.interval,
                                       [this](Cycles now) {
                                           auditor_->audit(now);
                                       });
        }
    }
}

System::~System() = default;

void
System::audit()
{
    auditor_->audit(totalCycles());
}

void
System::dumpStats(std::ostream &os) const
{
    rootStats_.print(os);
}

} // namespace mtlbsim
