#include "sweep/matrix.hh"

#include "base/logging.hh"
#include "workloads/workload.hh"

namespace mtlbsim::sweep
{

const SweepJob &
SweepMatrix::job(const std::string &id) const
{
    for (const auto &j : jobs) {
        if (j.id == id)
            return j;
    }
    fatal("matrix '", name, "' has no job '", id, "'");
}

SweepMatrix
fig3Matrix(double scale)
{
    SweepMatrix m;
    m.name = "fig3";
    for (const auto &workload : allWorkloadNames()) {
        for (const unsigned tlb : {64u, 96u, 128u}) {
            for (const bool mtlb : {false, true}) {
                SweepJob job;
                job.id = "fig3/" + workload + "/tlb" +
                         std::to_string(tlb) + (mtlb ? "+mtlb" : "");
                job.workload = workload;
                job.scale = scale;
                job.config = paperConfig(tlb, mtlb);
                m.jobs.push_back(std::move(job));
            }
        }
    }
    // The §3.4 textual claim: radix still misses hard at 256 entries.
    SweepJob radix256;
    radix256.id = "fig3/radix/tlb256";
    radix256.workload = "radix";
    radix256.scale = scale;
    radix256.config = paperConfig(256, false);
    m.jobs.push_back(std::move(radix256));
    return m;
}

SweepMatrix
fig4Matrix(double scale)
{
    SweepMatrix m;
    m.name = "fig4";

    SweepJob base;
    base.id = "fig4/em3d/no-mtlb";
    base.workload = "em3d";
    base.scale = scale;
    base.config = paperConfig(128, false);
    m.jobs.push_back(std::move(base));

    for (const unsigned entries : {64u, 128u, 256u, 512u}) {
        for (const unsigned assoc : {1u, 2u, 4u, 8u}) {
            SweepJob job;
            job.id = "fig4/em3d/m" + std::to_string(entries) + "x" +
                     std::to_string(assoc);
            job.workload = "em3d";
            job.scale = scale;
            job.config = paperConfig(128, true, entries, assoc);
            m.jobs.push_back(std::move(job));
        }
    }
    return m;
}

SweepMatrix
goldenMatrix(double scale, const SystemConfig &machine)
{
    SweepMatrix m;
    m.name = "golden";
    for (const auto &workload : allWorkloadNames()) {
        SweepJob job;
        job.id = workload;
        job.workload = workload;
        job.scale = scale;
        job.config = machine;
        m.jobs.push_back(std::move(job));
    }

    // The multi-core baseline: a 2-core machine time-slicing a
    // 4-process mix, pinning scheduler interleaving, shootdown
    // counts, and the per-core stat layout.
    SweepJob mix;
    mix.id = "multicore_mix";
    mix.workload = "multicore_mix";
    mix.scale = scale;
    mix.config = machine;
    mix.config.cores = 2;
    mix.processes = {"compress95", "vortex", "em3d", "compress95"};
    m.jobs.push_back(std::move(mix));
    return m;
}

SweepMatrix
makeMatrix(const std::string &name, double scale,
           const SystemConfig &base)
{
    if (name == "fig3")
        return fig3Matrix(scale);
    if (name == "fig4")
        return fig4Matrix(scale);
    if (name == "golden")
        return goldenMatrix(scale, base);
    fatal("unknown sweep matrix '", name,
          "'; expected fig3, fig4, or golden");
}

} // namespace mtlbsim::sweep
