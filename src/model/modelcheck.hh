/**
 * @file
 * Bounded exhaustive model checker for the kernel superpage state
 * machine.
 *
 * The differential fuzzer (src/fuzz) samples long random schedules;
 * this module instead enumerates *every* kernel-operation sequence
 * up to a small depth over a deliberately tiny machine — 2 TLB
 * entries, a 1-set MTLB, 8 user frames, a 4 MB shadow region — so
 * that interleavings the random generator is unlikely to hit
 * (swap-out of a superpage whose pages were never touched, remap
 * over a half-swapped region, back-to-back whole swaps) are all
 * visited.  Every edge replays its operation sequence on a fresh
 * DifferentialFuzzer with auditEvery=1, so each operation is
 * followed by the full TranslationAuditor sweep plus the oracle
 * lockstep comparison; any disagreement terminates the search with
 * the (minimal, by breadth-first construction) counterexample trace.
 *
 * States are deduplicated by a canonical 64-bit FNV-1a hash over the
 * architectural state (page tables, TLB, MTLB, shadow table, frame
 * free list, cache line presence, oracle mirror).  Deliberately
 * *excluded* from the hash: simulated time, statistics, and the
 * translation epoch — all strictly monotone along any path, so
 * including them would make every state unique and defeat pruning.
 * Two abstractions are accepted and documented (docs/manual.md §11):
 * the TLB's internal free-slot order and cache lines belonging to
 * no-longer-present pages are not hashed, and a 64-bit hash can in
 * principle collide.  Both can only *prune* a state the checker
 * should have expanded (a completeness caveat), never mask a
 * violation on an explored edge (soundness is per-edge).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hh"
#include "fuzz/schedule.hh"

namespace mtlbsim::model
{

/** Search parameters. */
struct ModelConfig
{
    /** Maximum operation-sequence length to enumerate. */
    unsigned depth = 6;

    /** Model-machine cores. Ops dispatch on core i % cores (the
     *  fuzzer's rule), so the dedup key folds in the dispatch phase:
     *  equal architectural states whose *next* op lands on different
     *  cores are distinct search nodes. */
    unsigned cores = 1;

    /** When set, an Inject op planting this corruption joins the
     *  alphabet; the checker is then expected to *fail*, and the
     *  breadth-first order guarantees the reported counterexample is
     *  a minimal-length reproducer. */
    std::optional<fuzz::FaultKind> plantFault;

    /** Stop after this many canonical states (0 = unlimited). The
     *  result is then truncated, not exhaustive. */
    std::uint64_t maxStates = 0;

    /** Print one progress line per depth level to stderr. */
    bool progress = false;
};

/** Search counters. */
struct ModelStats
{
    std::uint64_t statesExplored = 0;   ///< unique canonical states
    std::uint64_t statesPruned = 0;     ///< duplicate successors
    std::uint64_t edgesExecuted = 0;    ///< replays performed
    /** Unique states first reached at each depth (index = depth). */
    std::vector<std::uint64_t> levelSizes;
};

/** Outcome of a bounded search. */
struct ModelResult
{
    /** An invariant violation (or planted fault) was detected. */
    bool failed = false;
    fuzz::FuzzFailure failure;              ///< valid when failed
    /** Minimal op sequence reproducing the failure. */
    std::vector<fuzz::FuzzOp> counterexample;
    /** The maxStates budget ran out before the depth bound. */
    bool truncated = false;
    ModelStats stats;
};

/** The tiny machine every model run uses: 2 TLB entries, one 2-way
 *  MTLB set, the plain path (no page memo: the epoch is monotone and
 *  would defeat state dedup), exactly 8 user frames, a 16 KB cache
 *  (4 page colors) and a 4 MB shadow region (8 x 16 KB, 2 x 64 KB,
 *  1 x 256 KB regions after BucketShadowAllocator::partitionFor).
 *  With @p cores > 1 every core gets that private TLB over the
 *  shared rest. */
fuzz::FuzzParams modelParams(unsigned cores = 1);

/** The operation alphabet: loads/stores at three pages of chunk A
 *  and one of chunk B, 16 KB remaps of both chunks, pagewise and
 *  whole swap-outs of both, and one recolor — plus one Inject when
 *  @p cfg.plantFault is set. Chunk A is fuzzDataBase, chunk B is
 *  fuzzDataBase + 64 KB; together they cover exactly the 8 user
 *  frames, so no reachable sequence can exhaust the frame pool. */
std::vector<fuzz::FuzzOp> modelAlphabet(const ModelConfig &cfg);

/** Canonical architectural-state hash of a fuzzer that has finished
 *  a (non-failing) replay. Exposed for the determinism tests. */
std::uint64_t canonicalHash(fuzz::DifferentialFuzzer &fuzzer);

/** Human-readable form of one op ("store 0x10001000", "swap-whole
 *  0x10000000", ...) for counterexample printing. */
std::string opToString(const fuzz::FuzzOp &op);

/** Enumerate all sequences up to cfg.depth, breadth-first. */
ModelResult runModelCheck(const ModelConfig &cfg);

} // namespace mtlbsim::model
