#include "workloads/experiment.hh"

namespace mtlbsim
{

SystemConfig
paperConfig(unsigned tlb_entries, bool mtlb_enabled,
            unsigned mtlb_entries, unsigned mtlb_assoc)
{
    SystemConfig config;
    config.tlbEntries = tlb_entries;
    config.mtlbEnabled = mtlb_enabled;
    config.mtlb.numEntries = mtlb_entries;
    config.mtlb.associativity = mtlb_assoc;
    return config;
}

ExperimentResult
runExperiment(const std::string &workload_name, double scale,
              const SystemConfig &config)
{
    System sys(config);
    auto workload = makeWorkload(workload_name, scale);
    workload->setup(sys);
    workload->run(sys);

    // When auditing is on, cover the tail interval the periodic
    // check missed with one final end-of-run pass.
    if (config.check.enabled)
        sys.audit();

    return collectMetrics(sys, workload_name);
}

ExperimentResult
collectMetrics(System &sys, const std::string &workload_name)
{
    const SystemConfig &config = sys.config();

    ExperimentResult r;
    r.workload = workload_name;
    r.tlbEntries = config.tlbEntries;
    r.mtlbEnabled = config.mtlbEnabled;
    r.mtlbEntries = config.mtlb.numEntries;
    r.mtlbAssoc = config.mtlb.associativity;

    r.totalCycles = sys.totalCycles();
    r.tlbMissCycles = sys.tlbMissCycles();
    r.tlbMissFraction = sys.tlbMissFraction();
    r.avgFillCycles = sys.avgFillLatency();
    if (config.mtlbEnabled)
        r.mtlbHitRate = sys.memsys().mmc().mtlb().hitRate();
    r.tlbMisses = sys.tlb().misses();
    r.cacheMisses = sys.cache().misses();
    const double total_accesses =
        static_cast<double>(sys.cache().hits() + sys.cache().misses());
    r.cacheHitRate =
        total_accesses > 0
            ? static_cast<double>(sys.cache().hits()) / total_accesses
            : 0.0;

    r.remapTotalCycles = sys.kernel().remapTotalCycles();
    r.remapFlushCycles = sys.kernel().remapFlushCycles();
    r.remapPages = sys.kernel().remapPages();
    r.superpages = sys.kernel().addressSpace().superpages().size();
    return r;
}

} // namespace mtlbsim
