/**
 * @file
 * Fuzz schedules: the op vocabulary, the seeded generator, and the
 * JSON (de)serialization used by `.fztrace` replay files.
 *
 * A schedule is a pure function of its parameters: the generator
 * draws every operand from the deterministic xorshift generator up
 * front, so recording the parameter block is enough to regenerate
 * the exact op stream. Ops carry absolute virtual addresses (not
 * draws), which keeps replay independent of generator evolution.
 *
 * Ops that are momentarily inapplicable (a swap with no covering
 * superpage, a recolor inside a multi-page superpage) are *skipped
 * by guards at apply time*, not rejected at generation time — the
 * guards consult only simulated state, which is itself
 * deterministic, so record and replay take identical paths. The
 * same property makes schedule shrinking safe: removing a setup op
 * turns its dependents into no-ops instead of crashes.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "stats/json.hh"

namespace mtlbsim::fuzz
{

/** The fuzzer's op vocabulary. */
enum class OpKind : std::uint8_t
{
    Load,           ///< data load at a
    Store,          ///< data store at a
    LoadRo,         ///< load in the read-only region at a
    Remap,          ///< remap([a, a+b)) to shadow superpages
    SwapPagewise,   ///< pagewise swap-out of the superpage covering a
    SwapWhole,      ///< whole-superpage swap-out of the one covering a
    Recolor,        ///< recolor the page at a to color b
    Inject,         ///< plant FaultInjector corruption a (self-test)
};

/** One schedule operation; a/b meanings depend on kind. */
struct FuzzOp
{
    OpKind kind = OpKind::Load;
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    bool operator==(const FuzzOp &) const = default;
};

/** Every FaultInjector corruption class the self-test must catch. */
enum class FaultKind : std::uint8_t
{
    DoubleMapFrame,
    StaleMtlbEntry,
    DesyncDirtyBit,
    LeakShadowMapping,
    LeakFrame,
    StaleTlbEntry,
    StaleMemoEntry,
    ShadowEscape,
    RebindFrame,
    DropHptEntry,
    ClearDirtyBit,
    /** Swallow the next shootdown broadcast, leaving remote cores
     *  stale (multi-core machines; proves the auditor's cross-core
     *  coherence invariant fires). */
    SkipShootdown,
};

constexpr unsigned numFaultKinds = 12;

const char *faultKindName(FaultKind kind);

/**
 * Everything needed to reconstruct a run: machine shape + schedule
 * shape. Recorded verbatim in `.fztrace` files.
 */
struct FuzzParams
{
    std::uint64_t seed = 1;
    unsigned numOps = 2000;
    /** Run the sweep checks + auditor every N ops (and always after
     *  the last op). Affects only *when* a corruption is detected,
     *  never simulated behaviour. */
    unsigned auditEvery = 16;

    /** @name Machine shape: tiny structures for maximal pressure */
    /** @{ */
    /** Core count. Every core shares process 0 (the oracle stays flat
     *  per address space); op i is dispatched on core i % cores, so
     *  remote cores accumulate TLB state that only shootdown
     *  broadcasts keep coherent. Pre-existing traces without the
     *  field replay single-core. */
    unsigned cores = 1;
    unsigned tlbEntries = 8;
    unsigned mtlbEntries = 8;
    unsigned mtlbAssoc = 2;
    /** The host fast path (cpu.batch_enable): page memo plus batch
     *  replay. Off by default, and for traces recorded without the
     *  field; the equivalence contract makes final stats identical
     *  either way, but the recorded params stay the source of
     *  truth. */
    bool batch = false;
    Addr installedBytes = Addr{16} * 1024 * 1024;
    Addr cacheBytes = Addr{16} * 1024;
    /** Shadow region size. The kernel's bucket allocator partitions
     *  whatever it gets (BucketShadowAllocator::partitionFor); the
     *  model checker (src/model) shrinks this so per-state audits
     *  stay cheap. Pre-existing traces without the field replay with
     *  the historical 512 MB. */
    Addr shadowBytes = Addr{512} * 1024 * 1024;
    bool allShadowMode = false;
    bool onlinePromotion = true;
    std::uint64_t frameSeed = 12345;
    /** @} */

    bool operator==(const FuzzParams &) const = default;
};

/** @name Fuzzed address-space layout (fixed; recorded implicitly) */
/** @{ */
constexpr Addr fuzzDataBase = 0x10000000;
constexpr Addr fuzzDataBytes = Addr{1024} * 1024;    // 256 base pages
constexpr Addr fuzzRoBase = 0x20000000;
constexpr Addr fuzzRoBytes = Addr{64} * 1024;        // 16 base pages
/** @} */

/** A complete schedule: parameters plus the op stream. */
struct Schedule
{
    FuzzParams params;
    std::vector<FuzzOp> ops;
};

/** Machine-shape variation for a fuzzing seed: perturbs the host fast
 *  path, all-shadow mode, online promotion, and the frame shuffle so
 *  one `--runs N` sweep covers several corners. */
FuzzParams paramsForSeed(std::uint64_t seed, unsigned num_ops,
                         unsigned audit_every);

/** Generate the op stream for @p params (pure function). */
Schedule generateSchedule(const FuzzParams &params);

/** @name JSON round-trip (the `.fztrace` building blocks) */
/** @{ */
json::Value paramsToJson(const FuzzParams &params);
FuzzParams paramsFromJson(const json::Value &v);
json::Value opsToJson(const std::vector<FuzzOp> &ops);
std::vector<FuzzOp> opsFromJson(const json::Value &v);

/**
 * The loaders' one conversion from a JSON number to an integer
 * field: @p v must be a whole number in [0, @p max], else a
 * FatalError naming @p key.
 */
std::uint64_t traceInteger(const json::Value &v, const std::string &key,
                           std::uint64_t max = ~std::uint64_t{0});
/** @} */

} // namespace mtlbsim::fuzz
