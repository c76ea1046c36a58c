/**
 * @file
 * oltp: a commercial-database projection workload.
 *
 * Not one of the paper's five benchmarks — this models the workloads
 * its §1 and §6 *project* onto: "applications with significantly
 * larger working sets and worse spatial locality, such as is often
 * found in large databases and other commercially important
 * applications [Perl & Sites]". The paper claims its mechanism is
 * "likely to be even more effective" there; the `commercial` sweep
 * matrix quantifies that claim by sweeping this workload's footprint.
 *
 * The model is a single-node OLTP engine: a tens-of-megabytes table
 * of records indexed by a fanout-32 B-tree, point queries against a
 * scattered hot key set, updates writing records plus a sequential
 * redo log. Hot records are sparse in pages and dense in lines —
 * cache-friendly but far beyond any CPU TLB's reach.
 */

#pragma once

#include <vector>

#include "base/random.hh"
#include "workloads/workload.hh"

namespace mtlbsim
{

/** Tuning knobs for the oltp workload. */
struct OltpConfig
{
    unsigned numRecords = 250'000;  ///< ~40 MB with record+index
    Addr recordBytes = 160;
    unsigned treeFanout = 32;
    unsigned transactions = 400'000;
    unsigned updatePercent = 25;
    /** Queries hitting the hot set. Commercial traces (Perl & Sites)
     *  show caches coping while TLB reach fails: the hot records are
     *  few enough to cache but scattered over far more pages than
     *  any CPU TLB maps. */
    unsigned hotPercent = 92;
    /** Hot-set size as a fraction of the table (1/N records). */
    unsigned hotFraction = 64;
    /** sbrk preallocation chunk. */
    Addr preallocBytes = 16 * 1024 * 1024;
    std::uint64_t seed = 0x01f90ULL;
};

/**
 * The oltp workload.
 */
class OltpWorkload : public Workload
{
  public:
    explicit OltpWorkload(const OltpConfig &config);

    std::string name() const override { return "oltp"; }
    void setup(System &sys) override;
    void run(System &sys) override;

  private:
    Addr recordAddr(unsigned record) const;

    OltpConfig config_;
    Addr tableBase_ = 0;
    Addr logBase_ = 0;
    Addr logCursor_ = 0;
    Addr codeBase_ = 0;
    /** Index levels, root first (node addresses). */
    std::vector<std::vector<Addr>> treeLevels_;
};

} // namespace mtlbsim
