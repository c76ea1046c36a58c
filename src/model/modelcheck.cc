#include "model/modelcheck.hh"

#include <iostream>
#include <set>
#include <sstream>

#include "cache/cache.hh"
#include "mmc/memsys.hh"
#include "mmc/mmc.hh"
#include "mtlb/mtlb.hh"
#include "mtlb/shadow_table.hh"
#include "os/address_space.hh"
#include "os/frame_alloc.hh"
#include "os/hpt.hh"
#include "os/kernel.hh"
#include "sim/system.hh"

namespace mtlbsim::model
{

using fuzz::DifferentialFuzzer;
using fuzz::FuzzOp;
using fuzz::FuzzParams;
using fuzz::OpKind;

namespace
{

/** The two 16 KB-aligned chunks the alphabet operates on. Together
 *  they span 8 base pages — exactly the model machine's user-frame
 *  count, so materialisation can never exhaust the pool. */
constexpr Addr chunkA = fuzz::fuzzDataBase;
constexpr Addr chunkB = fuzz::fuzzDataBase + 64 * 1024;
constexpr Addr chunkBytes = 16 * 1024;
constexpr unsigned pagesPerChunk =
    static_cast<unsigned>(chunkBytes >> basePageShift);

/** 64-bit FNV-1a, fed one value at a time. */
class StateHasher
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Physical (or shadow) base address backing the present page at
 *  @p vbase — the tag its cache lines carry. */
Addr
pageBackingAddr(AddressSpace &space, Addr vbase)
{
    if (const ShadowSuperpage *sp = space.findSuperpage(vbase))
        return sp->shadowBase + (vbase - sp->vbase);
    return space.frameOf(vbase) << basePageShift;
}

} // namespace

FuzzParams
modelParams(unsigned cores)
{
    FuzzParams p;
    p.cores = cores ? cores : 1;
    p.seed = 1;
    p.numOps = 0;       // the search supplies the op streams
    p.auditEvery = 1;   // full sweep after every single op
    p.tlbEntries = 2;
    p.mtlbEntries = 2;
    p.mtlbAssoc = 2;    // one set: maximal conflict pressure
    // 8 user frames past KernelLayout::firstUserPfn (the frame pool
    // starts at 8 MB).
    p.installedBytes = Addr{8} * 1024 * 1024 + 8 * basePageSize;
    p.cacheBytes = Addr{16} * 1024;     // 4 page colors
    // 4 MB shadow: partitionFor gives 8 x 16 KB, 2 x 64 KB,
    // 1 x 256 KB regions and a 1024-entry shadow table.
    p.shadowBytes = Addr{4} * 1024 * 1024;
    p.allShadowMode = false;
    p.onlinePromotion = false;  // promotions fire at op granularity
    p.frameSeed = 12345;
    return p;
}

std::vector<FuzzOp>
modelAlphabet(const ModelConfig &cfg)
{
    std::vector<FuzzOp> ops;
    // Touch three distinct pages of chunk A (base, second, last) and
    // the base of chunk B: enough to create partially-present,
    // partially-dirty superpages without blowing up the fan-out.
    ops.push_back({OpKind::Load, chunkA, 0});
    ops.push_back({OpKind::Store, chunkA, 0});
    ops.push_back({OpKind::Load, chunkA + basePageSize, 0});
    ops.push_back({OpKind::Store, chunkA + basePageSize, 0});
    ops.push_back({OpKind::Store, chunkA + chunkBytes - basePageSize,
                   0});
    ops.push_back({OpKind::Load, chunkB, 0});
    ops.push_back({OpKind::Store, chunkB, 0});
    ops.push_back({OpKind::Remap, chunkA, chunkBytes});
    ops.push_back({OpKind::Remap, chunkB, chunkBytes});
    ops.push_back({OpKind::SwapPagewise, chunkA, 0});
    ops.push_back({OpKind::SwapWhole, chunkA, 0});
    ops.push_back({OpKind::SwapPagewise, chunkB, 0});
    ops.push_back({OpKind::SwapWhole, chunkB, 0});
    ops.push_back({OpKind::Recolor, chunkA, 1});
    if (cfg.plantFault) {
        ops.push_back({OpKind::Inject,
                       static_cast<std::uint64_t>(*cfg.plantFault),
                       0});
    }
    return ops;
}

std::uint64_t
canonicalHash(DifferentialFuzzer &fuzzer)
{
    System &sys = fuzzer.system();
    AddressSpace &space = sys.kernel().addressSpace();
    StateHasher h;

    // Present pages, in vpn order.
    h.mix(space.numPresentPages());
    space.forEachPresentPage([&h](Addr vpn, Addr pfn) {
        h.mix(vpn);
        h.mix(pfn);
    });

    // Superpage records (already an ordered map).
    h.mix(space.superpages().size());
    for (const auto &[vbase, sp] : space.superpages()) {
        h.mix(vbase);
        h.mix(sp.shadowBase);
        h.mix(static_cast<std::uint64_t>(sp.sizeClass));
    }

    // Every core's TLB content by slot, plus the NRU scan position
    // (replacement depends on it). The internal free-slot order is
    // *not* captured (documented completeness caveat, docs/manual.md
    // §11).
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        const Tlb &tlb = sys.tlb(c);
        h.mix(static_cast<std::uint64_t>(tlb.nruClock()));
        for (unsigned s = 0; s < tlb.capacity(); ++s) {
            const TlbEntry &e = tlb.entryAt(s);
            h.mix(e.valid);
            if (!e.valid)
                continue;
            h.mix(e.vbase);
            h.mix(e.pbase);
            h.mix(static_cast<std::uint64_t>(e.sizeClass));
            h.mix(e.prot.writable);
            h.mix(e.prot.userAccessible);
            h.mix(e.pinned);
            h.mix(e.referenced);
        }
    }

    // MTLB entries (snapshot order is set/way order: deterministic
    // and itself part of replacement state).
    MemorySystem &memsys = sys.memsys();
    if (memsys.mmc().hasMtlb()) {
        const auto mtlb = memsys.mmc().mtlb().auditState();
        h.mix(mtlb.size());
        for (const auto &e : mtlb) {
            h.mix(e.spi);
            h.mix(static_cast<std::uint64_t>(e.pte.realPfn));
            h.mix(static_cast<bool>(e.pte.valid));
            h.mix(static_cast<bool>(e.pte.fault));
            h.mix(static_cast<bool>(e.pte.referenced));
            h.mix(static_cast<bool>(e.pte.modified));
            h.mix(e.dirtyBits);
        }

        // The full shadow table (1024 entries on the model machine).
        const ShadowTable &st = memsys.mmc().shadowTable();
        for (Addr i = 0; i < st.numEntries(); ++i) {
            const ShadowPte &pte = st.entry(i);
            if (!pte.valid && !pte.fault && !pte.referenced &&
                !pte.modified) {
                continue;   // hash only non-empty entries
            }
            h.mix(i);
            h.mix(static_cast<std::uint64_t>(pte.realPfn));
            h.mix(static_cast<bool>(pte.valid));
            h.mix(static_cast<bool>(pte.fault));
            h.mix(static_cast<bool>(pte.referenced));
            h.mix(static_cast<bool>(pte.modified));
        }
    }

    // A pending (injected) shootdown suppression changes what the
    // next mutation does to remote TLBs without touching anything
    // else; without this mix the flagged state would be pruned
    // against its clean twin and the planted fault never found.
    h.mix(sys.kernel().shootdownSuppressed());

    // Frame free list *in order*: allocation order determines which
    // frame the next materialisation gets.
    const std::vector<Addr> free_list =
        sys.kernel().frames().allocationOrder();
    h.mix(free_list.size());
    for (Addr pfn : free_list)
        h.mix(pfn);

    // Hashed page table, in bucket-then-chain order.
    const Hpt &hpt = sys.kernel().hpt();
    h.mix(hpt.size());
    hpt.forEachEntry([&h](const Hpt::AuditEntry &e) {
        h.mix(e.vpn);
        h.mix(e.mapping.vbase);
        h.mix(e.mapping.pbase);
        h.mix(static_cast<std::uint64_t>(e.mapping.sizeClass));
        h.mix(e.mapping.prot.writable);
        h.mix(e.mapping.prot.userAccessible);
    });

    // Cache line presence/dirtiness for every present page under its
    // current tag. Lines of pages that have since been swapped out
    // were flushed by the kernel; anything else unreachable from a
    // present page cannot affect future behaviour at these pages'
    // addresses (documented caveat).
    const Cache &cache = sys.cache();
    space.forEachPresentPage([&](Addr vpn, Addr) {
        const Addr vbase = vpn << basePageShift;
        const Addr pbase = pageBackingAddr(space, vbase);
        for (Addr off = 0; off < basePageSize;
             off += Addr{1} << cacheLineShift) {
            const bool there = cache.probe(vbase + off, pbase + off);
            h.mix(there);
            if (there)
                h.mix(cache.probeDirty(vbase + off, pbase + off));
        }
    });

    // The oracle mirror over the model pages (it tracks nothing
    // else in a non-failing run).
    const fuzz::OracleMemory &oracle = fuzzer.oracle();
    h.mix(oracle.numPresentPages());
    for (Addr chunk : {chunkA, chunkB}) {
        for (unsigned i = 0; i < pagesPerChunk; ++i) {
            const Addr va = chunk + (Addr{i} << basePageShift);
            const bool p = oracle.present(va);
            h.mix(p);
            if (!p)
                continue;
            h.mix(oracle.frameOf(va).value_or(~Addr{0}));
            h.mix(oracle.referenced(va));
            h.mix(oracle.dirty(va));
        }
    }
    h.mix(oracle.superpages().size());
    for (const auto &[vbase, sp] : oracle.superpages()) {
        h.mix(vbase);
        h.mix(sp.shadowBase);
        h.mix(static_cast<std::uint64_t>(sp.sizeClass));
    }

    return h.value();
}

std::string
opToString(const FuzzOp &op)
{
    std::ostringstream os;
    os << std::hex;
    switch (op.kind) {
      case OpKind::Load:
        os << "load 0x" << op.a;
        break;
      case OpKind::LoadRo:
        os << "load-ro 0x" << op.a;
        break;
      case OpKind::Store:
        os << "store 0x" << op.a;
        break;
      case OpKind::Remap:
        os << "remap 0x" << op.a << " +0x" << op.b;
        break;
      case OpKind::SwapPagewise:
        os << "swap-pagewise 0x" << op.a;
        break;
      case OpKind::SwapWhole:
        os << "swap-whole 0x" << op.a;
        break;
      case OpKind::Recolor:
        os << "recolor 0x" << op.a << " color " << std::dec << op.b;
        break;
      case OpKind::Inject:
        os << "inject "
           << fuzz::faultKindName(static_cast<fuzz::FaultKind>(op.a));
        break;
    }
    return os.str();
}

ModelResult
runModelCheck(const ModelConfig &cfg)
{
    const unsigned cores = cfg.cores ? cfg.cores : 1;
    const FuzzParams params = modelParams(cores);
    const std::vector<FuzzOp> alphabet = modelAlphabet(cfg);

    // Ops dispatch on core (index % cores), so which core executes
    // the *next* op is a function of the trace length: equal
    // architectural states at different dispatch phases have
    // different successors and must not prune each other. For one
    // core the phase is always 0 and the key is the bare hash.
    const auto state_key = [cores](DifferentialFuzzer &fuzzer,
                                   std::size_t trace_len) {
        return canonicalHash(fuzzer) ^
               (0x9e3779b97f4a7c15ull * (trace_len % cores));
    };

    ModelResult result;
    std::set<std::uint64_t> seen;
    std::vector<std::vector<FuzzOp>> frontier;

    {
        DifferentialFuzzer root(params);
        (void)root.run({});
        seen.insert(state_key(root, 0));
    }
    result.stats.statesExplored = 1;
    result.stats.levelSizes.push_back(1);
    frontier.push_back({});

    for (unsigned depth = 1;
         depth <= cfg.depth && !frontier.empty(); ++depth) {
        std::vector<std::vector<FuzzOp>> next;
        for (const std::vector<FuzzOp> &trace : frontier) {
            for (const FuzzOp &op : alphabet) {
                std::vector<FuzzOp> child = trace;
                child.push_back(op);

                // Replay from scratch: the simulator is
                // deterministic, so the prefix re-derives the parent
                // state exactly; only the new op can fail.
                DifferentialFuzzer fuzzer(params);
                const fuzz::RunResult r = fuzzer.run(child);
                ++result.stats.edgesExecuted;

                if (r.failed) {
                    result.failed = true;
                    result.failure = r.failure;
                    result.counterexample = std::move(child);
                    return result;
                }

                if (!seen.insert(state_key(fuzzer, child.size()))
                         .second) {
                    ++result.stats.statesPruned;
                    continue;
                }
                ++result.stats.statesExplored;
                next.push_back(std::move(child));

                if (cfg.maxStates &&
                    result.stats.statesExplored >= cfg.maxStates) {
                    result.truncated = true;
                    result.stats.levelSizes.push_back(next.size());
                    return result;
                }
            }
        }
        result.stats.levelSizes.push_back(next.size());
        if (cfg.progress) {
            std::cerr << "model: depth " << depth << ": "
                      << next.size() << " new states, "
                      << result.stats.statesExplored << " total, "
                      << result.stats.edgesExecuted << " edges\n";
        }
        frontier = std::move(next);
    }

    return result;
}

} // namespace mtlbsim::model
