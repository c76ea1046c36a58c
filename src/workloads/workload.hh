/**
 * @file
 * Workload interface and shared conventions.
 *
 * The five benchmarks of §3.1 are reimplemented as execution-driven
 * reference generators: each runs its real (or behaviourally
 * matched) algorithm over host data while issuing every data
 * reference and instruction-count to the simulated CPU. radix and
 * em3d run their genuine algorithms; compress95 runs a real LZW
 * compressor; vortex and cc1 are synthetic models matched to the
 * paper's descriptions (footprints, allocation schedules, and
 * locality). See DESIGN.md §2 for the substitution rationale.
 *
 * Superpage instrumentation follows §2.3: workloads either remap()
 * their regions explicitly (compress95, radix, em3d) or allocate
 * through the superpage-aware sbrk() (vortex, cc1). On systems
 * without an MTLB those calls are cheap no-ops, reproducing the
 * baseline configuration.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace mtlbsim
{

/**
 * A benchmark program driving the simulated machine.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short name, e.g. "radix". */
    virtual std::string name() const = 0;

    /**
     * Declare regions, allocate and initialise data, and perform
     * superpage remapping, all on the simulated machine's clock.
     */
    virtual void setup(System &sys) = 0;

    /** Execute the measured phase. */
    virtual void run(System &sys) = 0;
};

/** Canonical user address-space layout used by all workloads. */
struct UserLayout
{
    static constexpr Addr textBase = 0x00400000;
    static constexpr Addr dataBase = 0x10000000;
    static constexpr Addr heapBase = 0x20000000;
    static constexpr Addr heapMaxBytes = Addr{192} * 1024 * 1024;
    static constexpr Addr stackBase = 0x7ff00000;
    static constexpr Addr stackBytes = 0x00100000;
};

/**
 * Factory: construct a workload by name with a size scale factor.
 *
 * @param name  one of "compress95", "vortex", "radix", "em3d", "cc1"
 * @param scale 1.0 reproduces the paper's §3.1 sizes; smaller values
 *              shrink datasets proportionally (used by unit tests)
 * @param seed  0 keeps each workload's fixed paper seed; any other
 *              value overrides it (sweep jobs derive one per job, so
 *              a job's trace depends only on its own identity)
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       double scale = 1.0,
                                       std::uint64_t seed = 0);

/** Names of all five §3.1 benchmarks, in the paper's order. */
std::vector<std::string> allWorkloadNames();

} // namespace mtlbsim
