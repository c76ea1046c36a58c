#include "fuzz/schedule.hh"

#include <limits>
#include <optional>

#include "base/logging.hh"
#include "base/random.hh"

namespace mtlbsim::fuzz
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DoubleMapFrame: return "double-map-frame";
      case FaultKind::StaleMtlbEntry: return "stale-mtlb-entry";
      case FaultKind::DesyncDirtyBit: return "desync-dirty-bit";
      case FaultKind::LeakShadowMapping: return "leak-shadow-mapping";
      case FaultKind::LeakFrame: return "leak-frame";
      case FaultKind::StaleTlbEntry: return "stale-tlb-entry";
      case FaultKind::StaleMemoEntry: return "stale-memo-entry";
      case FaultKind::ShadowEscape: return "shadow-escape";
      case FaultKind::RebindFrame: return "rebind-frame";
      case FaultKind::DropHptEntry: return "drop-hpt-entry";
      case FaultKind::ClearDirtyBit: return "clear-dirty-bit";
      case FaultKind::SkipShootdown: return "skip-shootdown";
    }
    panic("unknown fault kind ", static_cast<unsigned>(kind));
}

FuzzParams
paramsForSeed(std::uint64_t seed, unsigned num_ops,
              unsigned audit_every)
{
    FuzzParams p;
    p.seed = seed;
    p.numOps = num_ops;
    p.auditEvery = audit_every;
    // Derive the machine-shape corners from the seed so a multi-seed
    // sweep exercises the plain path, all-shadow, and explicit-only
    // configurations without separate plumbing; two seeds in three
    // run the page memo and batch replay.
    p.batch = (seed % 3) != 0;
    p.allShadowMode = (seed % 4) == 1;
    p.onlinePromotion = (seed % 2) == 0;
    p.frameSeed = 12345 + seed;
    return p;
}

Schedule
generateSchedule(const FuzzParams &params)
{
    Schedule schedule;
    schedule.params = params;
    schedule.ops.reserve(params.numOps);

    Random rng(params.seed * 0x9e3779b97f4a7c15ULL + 1);

    // Accesses favour a sliding hot window so the same pages are
    // touched often enough for online promotion to trigger, while
    // the uniform tail keeps the tiny TLB/MTLB thrashing.
    constexpr Addr hot_bytes = Addr{64} * 1024;
    Addr hot_base = 0;

    for (unsigned i = 0; i < params.numOps; ++i) {
        if (i % 192 == 0)
            hot_base = rng.below(fuzzDataBytes - hot_bytes) & ~Addr{4095};

        FuzzOp op;
        const std::uint64_t pick = rng.below(100);
        if (pick < 65) {
            // Load or store in the data region.
            op.kind = rng.chance(45, 100) ? OpKind::Store : OpKind::Load;
            Addr offset;
            if (rng.chance(60, 100))
                offset = hot_base + rng.below(hot_bytes);
            else
                offset = rng.below(fuzzDataBytes);
            op.a = fuzzDataBase + (offset & ~Addr{3});
        } else if (pick < 70) {
            op.kind = OpKind::LoadRo;
            op.a = fuzzRoBase + (rng.below(fuzzRoBytes) & ~Addr{3});
        } else if (pick < 78) {
            op.kind = OpKind::Remap;
            const Addr sizes[] = {Addr{16} * 1024, Addr{64} * 1024,
                                  Addr{256} * 1024};
            const Addr bytes = sizes[rng.below(3)];
            const Addr base =
                rng.below(fuzzDataBytes - bytes) & ~Addr{16 * 1024 - 1};
            op.a = fuzzDataBase + base;
            op.b = bytes;
        } else if (pick < 86) {
            op.kind = rng.chance(2, 3) ? OpKind::SwapPagewise
                                       : OpKind::SwapWhole;
            op.a = fuzzDataBase + pageBase(rng.below(fuzzDataBytes));
        } else {
            op.kind = OpKind::Recolor;
            op.a = fuzzDataBase + pageBase(rng.below(fuzzDataBytes));
            op.b = rng.below(16);   // applied modulo the color count
        }
        schedule.ops.push_back(op);
    }
    return schedule;
}

namespace
{

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Load: return "load";
      case OpKind::Store: return "store";
      case OpKind::LoadRo: return "load_ro";
      case OpKind::Remap: return "remap";
      case OpKind::SwapPagewise: return "swap_pagewise";
      case OpKind::SwapWhole: return "swap_whole";
      case OpKind::Recolor: return "recolor";
      case OpKind::Inject: return "inject";
    }
    panic("unknown op kind ", static_cast<unsigned>(kind));
}

OpKind
opKindFromName(const std::string &name)
{
    for (unsigned k = 0; k <= static_cast<unsigned>(OpKind::Inject);
         ++k) {
        const OpKind kind = static_cast<OpKind>(k);
        if (name == opKindName(kind))
            return kind;
    }
    fatal("fztrace: unknown op kind '", name, "'");
}

/** The integer member @p key of @p v, checked to fit a @p T. */
template <typename T>
T
intMember(const json::Value &v, const char *key)
{
    const json::Value *m = v.find(key);
    fatalIf(m == nullptr, "fztrace: missing numeric member '", key, "'");
    return static_cast<T>(
        traceInteger(*m, key, std::numeric_limits<T>::max()));
}

bool
boolMember(const json::Value &v, const char *key)
{
    const json::Value *m = v.find(key);
    fatalIf(m == nullptr || !m->isBool(),
            "fztrace: missing boolean member '", key, "'");
    return m->asBool();
}

} // namespace

json::Value
paramsToJson(const FuzzParams &params)
{
    json::Value v = json::Value::object();
    v.set("seed", json::Value(params.seed));
    v.set("num_ops", json::Value(params.numOps));
    v.set("audit_every", json::Value(params.auditEvery));
    v.set("cores", json::Value(params.cores));
    v.set("tlb_entries", json::Value(params.tlbEntries));
    v.set("mtlb_entries", json::Value(params.mtlbEntries));
    v.set("mtlb_assoc", json::Value(params.mtlbAssoc));
    v.set("batch", json::Value(params.batch));
    v.set("installed_bytes", json::Value(params.installedBytes));
    v.set("cache_bytes", json::Value(params.cacheBytes));
    v.set("shadow_bytes", json::Value(params.shadowBytes));
    v.set("all_shadow", json::Value(params.allShadowMode));
    v.set("online_promotion", json::Value(params.onlinePromotion));
    v.set("frame_seed", json::Value(params.frameSeed));
    return v;
}

FuzzParams
paramsFromJson(const json::Value &v)
{
    FuzzParams p;
    p.seed = intMember<std::uint64_t>(v, "seed");
    p.numOps = intMember<unsigned>(v, "num_ops");
    p.auditEvery = intMember<unsigned>(v, "audit_every");
    p.tlbEntries = intMember<unsigned>(v, "tlb_entries");
    p.mtlbEntries = intMember<unsigned>(v, "mtlb_entries");
    p.mtlbAssoc = intMember<unsigned>(v, "mtlb_assoc");
    p.installedBytes = intMember<Addr>(v, "installed_bytes");
    p.cacheBytes = intMember<Addr>(v, "cache_bytes");
    // Optional: traces recorded before the field existed replay with
    // the historical default.
    if (v.find("shadow_bytes") != nullptr)
        p.shadowBytes = intMember<Addr>(v, "shadow_bytes");
    if (v.find("batch") != nullptr)
        p.batch = boolMember(v, "batch");
    if (v.find("cores") != nullptr)
        p.cores = intMember<unsigned>(v, "cores");
    p.allShadowMode = boolMember(v, "all_shadow");
    p.onlinePromotion = boolMember(v, "online_promotion");
    p.frameSeed = intMember<std::uint64_t>(v, "frame_seed");
    return p;
}

json::Value
opsToJson(const std::vector<FuzzOp> &ops)
{
    json::Value arr = json::Value::array();
    for (const FuzzOp &op : ops) {
        json::Value triple = json::Value::array();
        triple.push(json::Value(opKindName(op.kind)));
        triple.push(json::Value(op.a));
        triple.push(json::Value(op.b));
        arr.push(std::move(triple));
    }
    return arr;
}

std::vector<FuzzOp>
opsFromJson(const json::Value &v)
{
    fatalIf(!v.isArray(), "fztrace: ops must be an array");
    std::vector<FuzzOp> ops;
    ops.reserve(v.items().size());
    for (const json::Value &item : v.items()) {
        fatalIf(!item.isArray() || item.items().size() != 3,
                "fztrace: each op must be a [kind, a, b] triple");
        const std::string key = "ops[" + std::to_string(ops.size()) + "]";
        FuzzOp op;
        op.kind = opKindFromName(item.items()[0].asString());
        op.a = traceInteger(item.items()[1], key + "[1]");
        op.b = traceInteger(item.items()[2], key + "[2]");
        ops.push_back(op);
    }
    return ops;
}

std::uint64_t
traceInteger(const json::Value &v, const std::string &key,
             std::uint64_t max)
{
    const std::optional<std::uint64_t> n =
        v.isNumber() ? v.asUnsigned() : std::nullopt;
    fatalIf(!n || *n > max, "fztrace: '", key,
            "' must be an integer in [0, ", max, "], not ", v.dumped(0));
    return *n;
}

} // namespace mtlbsim::fuzz
