/**
 * @file
 * google-benchmark microbenchmarks of the simulator's primitives.
 *
 * These measure *host-side* throughput: they demonstrate the
 * simulator is fast enough for trace-scale experiments and act as
 * regression guards on the hot paths (TLB lookup, MTLB translate,
 * cache access, full CPU access path).
 */

#include <benchmark/benchmark.h>

#include "base/random.hh"
#include "mmc/memsys.hh"
#include "sim/system.hh"

using namespace mtlbsim;

namespace
{
constexpr Addr MB = 1024 * 1024;
}

static void
BM_TlbLookupHit(benchmark::State &state)
{
    stats::StatGroup g("b");
    Tlb tlb(static_cast<unsigned>(state.range(0)), "tlb", g);
    for (unsigned i = 0; i < state.range(0); ++i)
        tlb.insert(Addr{i} << basePageShift, Addr{i} << basePageShift,
                   0, PageProtection{});
    Random rng(1);
    const Addr mask = (state.range(0) - 1);
    for (auto _ : state) {
        const Addr v = (rng.next() & mask) << basePageShift;
        benchmark::DoNotOptimize(
            tlb.lookup(v, AccessType::Read, AccessMode::User));
    }
}
BENCHMARK(BM_TlbLookupHit)->Arg(64)->Arg(128)->Arg(256);

static void
BM_TlbInsertEvict(benchmark::State &state)
{
    stats::StatGroup g("b");
    Tlb tlb(96, "tlb", g);
    Addr v = 0;
    for (auto _ : state) {
        tlb.insert(v << basePageShift, v << basePageShift, 0,
                   PageProtection{});
        ++v;
    }
}
BENCHMARK(BM_TlbInsertEvict);

static void
BM_MtlbTranslate(benchmark::State &state)
{
    stats::StatGroup g("b");
    ShadowTable table(131072, 0x100000);
    MtlbConfig c;
    c.numEntries = 128;
    c.associativity = 2;
    Mtlb mtlb(c, table, g);
    for (Addr i = 0; i < 4096; ++i)
        table.set(i, i + 1);
    Random rng(2);
    const Addr spread = state.range(0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mtlb.translate(rng.below(spread),
                           MtlbAccess::SharedFill));
    }
    state.SetLabel(spread <= 128 ? "mostly hits" : "mostly misses");
}
BENCHMARK(BM_MtlbTranslate)->Arg(64)->Arg(4096);

static void
BM_CacheAccess(benchmark::State &state)
{
    struct NullBackend : MemBackend
    {
        Cycles lineFill(Addr, bool, Cycles) override { return 30; }
        Cycles writeBack(Addr, Cycles) override { return 6; }
    };
    stats::StatGroup g("b");
    NullBackend backend;
    Cache cache(CacheConfig{}, backend, g);
    Random rng(3);
    const Addr spread = static_cast<Addr>(state.range(0)) * MB;
    Cycles now = 0;
    for (auto _ : state) {
        const Addr a = rng.below(spread) & ~cacheLineMask;
        benchmark::DoNotOptimize(cache.access(a, a, false, now++));
    }
    state.SetLabel(spread <= 512 * 1024 / 2 ? "hits" : "mixed");
}
BENCHMARK(BM_CacheAccess)->Arg(8);

static void
BM_FullSystemAccess(benchmark::State &state)
{
    const bool with_mtlb = state.range(0) != 0;
    SystemConfig config;
    config.installedBytes = 128 * MB;
    config.mtlbEnabled = with_mtlb;
    System sys(config);
    const Addr base = 0x10000000;
    const Addr span = 16 * MB;
    sys.kernel().addressSpace().addRegion("data", base, span, {});
    if (with_mtlb)
        sys.cpu().remap(base, span);
    Random rng(4);
    for (auto _ : state) {
        sys.cpu().load(base + (rng.below(span) & ~Addr{7}));
    }
    state.SetLabel(with_mtlb ? "shadow superpages" : "base pages");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullSystemAccess)->Arg(0)->Arg(1);

static void
BM_HptLookup(benchmark::State &state)
{
    stats::StatGroup g("b");
    System *sys = nullptr;
    (void)sys;
    Hpt hpt(0x200000, 16384);
    for (Addr v = 0; v < 4096; ++v)
        hpt.insert({v << basePageShift, v << basePageShift, 0,
                    PageProtection{}});
    Random rng(5);
    std::vector<Addr> probes;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            hpt.lookup((rng.below(4096)) << basePageShift, 0, probes));
    }
}
BENCHMARK(BM_HptLookup);

static void
BM_ShadowAllocFree(benchmark::State &state)
{
    const AddrRange shadow{0x80000000, 512 * MB};
    BuddyShadowAllocator alloc(shadow);
    Random rng(6);
    for (auto _ : state) {
        const unsigned c =
            minShadowSizeClass +
            static_cast<unsigned>(rng.below(4));
        auto a = alloc.allocate(c);
        if (a)
            alloc.free(*a, c);
    }
}
BENCHMARK(BM_ShadowAllocFree);

static void
BM_DramAccess(benchmark::State &state)
{
    stats::StatGroup g("b");
    Dram dram(DramConfig{}, g);
    Random rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dram.access(rng.below(256 * MB), true));
    }
}
BENCHMARK(BM_DramAccess);

BENCHMARK_MAIN();
