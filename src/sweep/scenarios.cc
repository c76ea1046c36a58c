#include "sweep/scenarios.hh"

#include <set>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "os/clock_daemon.hh"
#include "os/shadow_alloc.hh"

namespace mtlbsim::sweep
{

namespace
{

constexpr Addr MB = 1024 * 1024;
constexpr AddrRange shadow512{0x80000000, 512 * MB};

/**
 * Drive an allocator with a remap-like request mix until the first
 * failure; returns bytes successfully delivered.
 */
Addr
deliveredUntilFailure(ShadowAllocator &alloc, std::uint64_t seed)
{
    // Request mix biased towards large superpages, as maximally
    // sized superpage creation (§2.4) produces.
    Random rng(seed);
    Addr delivered = 0;
    while (true) {
        unsigned c;
        const auto roll = rng.below(100);
        if (roll < 40)
            c = 6;
        else if (roll < 60)
            c = 5;
        else if (roll < 75)
            c = 4;
        else if (roll < 85)
            c = 3;
        else if (roll < 95)
            c = 2;
        else
            c = 1;
        const auto base = alloc.allocate(c);
        if (!base)
            return delivered;
        delivered += pageSizeForClass(c);
    }
}

/** Where the recoloring scenario's data region starts. */
constexpr Addr recolorBase = 0x10000000;

/** Find @p pairs (a, b) of virtual pages whose frames share a
 *  color. Touches pages to materialise them. */
std::vector<std::pair<Addr, Addr>>
findConflicts(System &sys, unsigned pairs)
{
    std::vector<std::pair<Addr, Addr>> result;
    std::vector<Addr> by_color[128];
    for (Addr off = 0; off < 24 * MB && result.size() < pairs;
         off += basePageSize) {
        const Addr va = recolorBase + off;
        sys.cpu().load(va);
        const unsigned color = sys.kernel().colorOf(va);
        by_color[color].push_back(va);
        if (by_color[color].size() == 2) {
            result.emplace_back(by_color[color][0],
                                by_color[color][1]);
            by_color[color].clear();
        }
    }
    fatalIf(result.size() < pairs, "not enough conflicts found");
    return result;
}

/** Ping-pong between the pages of every pair. */
Cycles
hammer(System &sys, const std::vector<std::pair<Addr, Addr>> &pairs,
       unsigned reps)
{
    const Cycles start = sys.cpu().now();
    for (unsigned r = 0; r < reps; ++r) {
        for (const auto &[a, b] : pairs) {
            for (unsigned line = 0; line < 4; ++line) {
                sys.cpu().execute(3);
                sys.cpu().load(a + line * 32);
                sys.cpu().execute(3);
                sys.cpu().load(b + line * 32);
            }
        }
    }
    return sys.cpu().now() - start;
}

/** Model of conventional copy-based recoloring: pay a warm page
 *  copy (§3.3: ~11,400 cycles) per recolored page. The copy itself
 *  is simulated with the same word loop warmCopyCost measures. */
void
copyRecolor(System &sys, Addr va)
{
    // Copy to a scratch page, then back-map: in a real kernel the
    // page would move frames; the dominant cost is the copy loop.
    const Addr scratch = recolorBase + 30 * MB;
    for (Addr off = 0; off < basePageSize; off += 4) {
        sys.cpu().execute(9);
        sys.cpu().load(va + off);
        sys.cpu().store(scratch + off);
    }
}

} // namespace

ScenarioValues
fig2Exhaustion(System &, std::uint64_t seed)
{
    const auto partition = BucketShadowAllocator::defaultPartition();
    BucketShadowAllocator bucket(shadow512, partition);
    // The allocator must expose exactly Figure 2's counts.
    for (unsigned c = minShadowSizeClass; c <= maxShadowSizeClass;
         ++c) {
        fatalIf(bucket.available(c) != partition[c], "the allocator has ",
                bucket.available(c), " superpages of ",
                pageSizeForClass(c) / 1024, " KB, not ", partition[c]);
    }
    BuddyShadowAllocator buddy(shadow512);
    return {{"bucket_bytes", static_cast<double>(
                                 deliveredUntilFailure(bucket, seed))},
            {"buddy_bytes", static_cast<double>(
                                deliveredUntilFailure(buddy, seed))}};
}

ScenarioValues
flushCost(System &sys)
{
    auto &as = sys.kernel().addressSpace();
    const Addr base = 0x10000000;
    const unsigned pages = 64;
    as.addRegion("data", base, pages * basePageSize, {});

    // Touch the pages with a mix of reads and writes so the cache
    // holds a realistic share of their lines.
    Random rng(7);
    for (unsigned p = 0; p < pages; ++p) {
        for (Addr off = 0; off < basePageSize; off += cacheLineSize) {
            if (rng.chance(1, 3))
                sys.cpu().store(base + p * basePageSize + off);
            else if (rng.chance(1, 2))
                sys.cpu().load(base + p * basePageSize + off);
        }
    }

    // remap() flushes every line of every (pre-existing) page.
    const Cycles before = sys.kernel().remapFlushCycles();
    sys.cpu().remap(base, pages * basePageSize);
    const Cycles flushed = sys.kernel().remapFlushCycles() - before;
    return {{"flush_cycles_per_page",
             static_cast<double>(flushed) / pages}};
}

ScenarioValues
warmCopyCost(System &sys)
{
    auto &as = sys.kernel().addressSpace();
    // src and dst must map to different cache indices (the paper's
    // "warm" copy is the friendly case); 256 KB apart in a 512 KB
    // direct-mapped cache keeps them disjoint.
    const Addr src = 0x10000000;
    const Addr dst = 0x10040000;
    as.addRegion("data", src, basePageSize, {});
    as.addRegion("data2", dst, basePageSize, {});

    // Warm the source page.
    for (Addr off = 0; off < basePageSize; off += cacheLineSize)
        sys.cpu().load(src + off);
    // Touch dst once so its translation exists (the copy loop's own
    // first store would otherwise include a page fault).
    sys.cpu().store(dst);

    // Word-by-word copy loop, as the 1998 kernels' bcopy did: one
    // load, one store, and ~9 cycles of loop/address overhead per
    // 4-byte word.
    const Cycles before = sys.cpu().now();
    for (Addr off = 0; off < basePageSize; off += 4) {
        sys.cpu().execute(9);
        sys.cpu().load(src + off);
        sys.cpu().store(dst + off);
    }
    return {{"copy_cycles",
             static_cast<double>(sys.cpu().now() - before)}};
}

ScenarioValues
swapOut(System &sys, unsigned dirty_pct, bool pagewise)
{
    auto &as = sys.kernel().addressSpace();
    const Addr base = 0x10000000;
    as.addRegion("data", base, MB, {});
    sys.cpu().remap(base, MB);

    // Touch every page; write to the chosen fraction.
    Random rng(17);
    for (Addr off = 0; off < MB; off += basePageSize) {
        if (rng.below(100) < dirty_pct)
            sys.cpu().store(base + off);
        else
            sys.cpu().load(base + off);
    }

    const Cycles t0 = sys.cpu().now();
    const SwapOutResult r =
        pagewise
            ? sys.kernel().swapOutSuperpagePagewise(base, t0)
            : sys.kernel().swapOutSuperpageWhole(base, t0);
    return {{"pages_written", r.pagesWritten},
            {"pages_clean", r.pagesClean},
            {"cycles", static_cast<double>(r.cycles)}};
}

ScenarioValues
recolorPairs(System &sys, Recolor policy)
{
    sys.kernel().addressSpace().addRegion("data", recolorBase, 32 * MB,
                                          {});
    const auto pairs = findConflicts(sys, recolorPairCount);
    const Cycles fix_start = sys.cpu().now();
    if (policy != Recolor::None) {
        for (const auto &[a, b] : pairs) {
            if (policy == Recolor::Copy) {
                // After the copy the data lives in a new frame of a
                // fresh color; model the new placement by recoloring
                // the mapping (cheap part) — the copy loop charged
                // the expensive part.
                copyRecolor(sys, b);
            }
            sys.cpu().recolorPage(b,
                                  (sys.kernel().colorOf(a) + 64) % 128);
        }
    }
    const Cycles fix = sys.cpu().now() - fix_start;
    const auto misses = sys.cache().misses();
    const Cycles t = hammer(sys, pairs, recolorRounds);
    return {{"fix_cycles", static_cast<double>(fix)},
            {"hammer_cycles", static_cast<double>(t)},
            {"cache_misses",
             static_cast<double>(sys.cache().misses() - misses)}};
}

ScenarioValues
superpageAgnostic(System &sys)
{
    // A program that gains nothing from superpages (its TLB
    // behaviour is identical either way): sequential sweeps over
    // 2 MB, plus pointer-chasing sprinkles across 8 MB that exercise
    // the MTLB's capacity in all-shadow mode.
    const Addr base = 0x10000000;
    const Addr span = 2 * MB;
    const Addr far_span = 8 * MB;
    sys.kernel().addressSpace().addRegion("data", base, far_span, {});

    Random rng(9);
    for (unsigned sweep = 0; sweep < 8; ++sweep) {
        for (Addr off = 0; off < span; off += 32) {
            sys.cpu().execute(3);
            if (rng.chance(1, 16))
                sys.cpu().store(base + off);
            else
                sys.cpu().load(base + off);
            if (rng.chance(1, 8)) {
                sys.cpu().execute(2);
                sys.cpu().load(base +
                               (rng.below(far_span) & ~Addr{7}));
            }
        }
    }
    return {};
}

ScenarioValues
clockFidelity(System &sys, unsigned stream_mb)
{
    constexpr Addr base = 0x10000000;
    constexpr unsigned pages = 256;     // 1 MB superpage

    auto &as = sys.kernel().addressSpace();
    as.addRegion("data", base, 16 * MB, {});
    sys.cpu().remap(base, pages * basePageSize);

    ClockDaemon daemon(as, sys.memsys(), sys.physmap());
    daemon.watch(base);

    const Addr competing = base + 8 * MB;

    Random rng(21);
    unsigned false_idle = 0, active_total = 0;
    unsigned true_idle = 0, idle_total = 0;

    // Warm up: touch everything once, then reset the bits.
    for (unsigned p = 0; p < pages; ++p)
        sys.cpu().load(base + Addr{p} * basePageSize);
    daemon.sweep(sys.cpu().now());

    for (unsigned interval = 0; interval < 8; ++interval) {
        // Ground truth: touch a random half of the pages, four
        // line-reads each (re-using the same lines every interval,
        // so with no cache pressure they stay resident).
        std::set<unsigned> touched;
        for (unsigned p = 0; p < pages; ++p) {
            if (rng.chance(1, 2)) {
                touched.insert(p);
                for (unsigned l = 0; l < 4; ++l) {
                    sys.cpu().execute(3);
                    sys.cpu().load(base + Addr{p} * basePageSize +
                                   l * 32);
                }
            }
        }
        // Competing traffic evicts hot lines when configured.
        for (Addr off = 0; off < Addr{stream_mb} * MB; off += 32)
            sys.cpu().load(competing + off);

        const auto sweep = daemon.sweep(sys.cpu().now());
        std::set<Addr> idle(sweep.idle.begin(), sweep.idle.end());
        for (unsigned p = 0; p < pages; ++p) {
            const Addr va = base + Addr{p} * basePageSize;
            const bool was_touched = touched.count(p) > 0;
            const bool called_idle = idle.count(va) > 0;
            if (was_touched) {
                ++active_total;
                if (called_idle)
                    ++false_idle;
            } else {
                ++idle_total;
                if (called_idle)
                    ++true_idle;
            }
        }
    }

    return {{"false_idle_pct", 100.0 * false_idle / active_total},
            {"true_idle_pct", 100.0 * true_idle / idle_total}};
}

} // namespace mtlbsim::sweep
