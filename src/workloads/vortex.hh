/**
 * @file
 * vortex: object-oriented database model (§3.1).
 *
 * SPEC95 vortex builds several in-core databases and runs
 * transactions against them, continuously allocating from the heap.
 * The paper characterises it entirely by that behaviour: ~9 MB of
 * basic datasets built first (sbrk preallocation 8 MB, then reduced
 * to 2 MB), then transactions that traverse the databases and
 * dynamically allocate ~10 MB more, for ~18 MB total over the run —
 * all superpage creation happening inside the modified sbrk().
 *
 * This synthetic model reproduces exactly that: three databases of
 * heap objects indexed by fanout-16 trees, and a transaction mix of
 * lookups (tree traversal + object reads), updates, and inserts
 * (fresh allocation + index insertion). All storage is addressed in
 * simulated heap memory obtained from the kernel's sbrk().
 */

#pragma once

#include <vector>

#include "base/random.hh"
#include "workloads/workload.hh"

namespace mtlbsim
{

/** Tuning knobs for the vortex workload. */
struct VortexConfig
{
    unsigned numDatabases = 3;
    unsigned objectsPerDb = 20'000;     ///< ~9 MB basic datasets
    unsigned transactions = 280'000;    ///< ~10 MB transaction allocs
    unsigned treeFanout = 16;
    unsigned updatePercent = 30;
    unsigned insertPercent = 20;
    /** sbrk() preallocation: 8 MB while building the datasets, then
     *  2 MB during transactions (§3.1). */
    Addr initialPreallocBytes = 8 * 1024 * 1024;
    Addr laterPreallocBytes = 2 * 1024 * 1024;
    std::uint64_t seed = 0x40e7e10ULL;
};

/**
 * The vortex workload.
 */
class VortexWorkload : public Workload
{
  public:
    explicit VortexWorkload(const VortexConfig &config);

    std::string name() const override { return "vortex"; }
    void setup(System &sys) override;
    void run(System &sys) override;

  private:
    struct Database
    {
        /** Simulated addresses of the objects, in key order. */
        std::vector<Addr> objects;
        std::vector<Addr> objectSizes;
        /** Index levels, root first; each level holds node
         *  addresses. */
        std::vector<std::vector<Addr>> treeLevels;
    };

    /** malloc() model: a bump allocation served by sbrk(). */
    Addr alloc(System &sys, Addr bytes);

    /** Allocate + write one object of pseudo-random size. */
    Addr allocObject(System &sys, Random &rng);

    /** Traverse a database's index for a key; returns leaf slot. */
    void traverse(System &sys, const Database &db, std::uint64_t key);

    VortexConfig config_;
    std::vector<Database> dbs_;
    Addr codeBase_ = 0;
};

} // namespace mtlbsim
