/**
 * @file
 * §3.3 reproduction: superpage initialisation costs.
 *
 * The paper reports:
 *  - explicit cache flushing of remapped pages averages ~1,400 CPU
 *    cycles per 4 KB page;
 *  - copying a 4 KB page whose source is warm in the cache costs
 *    ~11,400 CPU cycles — the cost a copy-based superpage scheme
 *    (conventional contiguity-repairing promotion) would pay instead;
 *  - em3d remaps 1,120 pages of initialised dynamic memory for a
 *    total of 1,659,154 cycles, of which 1,497,067 are cache
 *    flushing and 162,087 everything else.
 *
 * Usage: sec33_init_costs [scale]
 */

#include <cstdio>
#include <cstdlib>

#include "workloads/experiment.hh"

using namespace mtlbsim;

namespace
{

/** Measure the average flush cost of warm, partly dirty pages. */
double
measureFlushCost()
{
    SystemConfig config = paperConfig(96, true);
    System sys(config);
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
    return static_cast<double>(flushed) / pages;
}

/** Measure a kernel word-copy of a 4 KB page with a warm source. */
double
measureWarmCopyCost()
{
    SystemConfig config = paperConfig(96, false);
    System sys(config);
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
    return static_cast<double>(sys.cpu().now() - before);
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;

    std::printf("=== §3.3: superpage initialisation costs\n\n");

    const double flush = measureFlushCost();
    std::printf("cache flush per 4 KB page (paper ~1,400 cycles): "
                "%.0f cycles\n", flush);

    const double copy = measureWarmCopyCost();
    std::printf("warm 4 KB page copy (paper ~11,400 cycles):      "
                "%.0f cycles\n", copy);
    std::printf("flush/copy advantage of remapping over copying:  "
                "%.1fx\n\n", copy / flush);

    // em3d's remap() breakdown (paper: 1,120 pages, 1,659,154 total,
    // 1,497,067 flushing, 162,087 other).
    const auto em3d =
        runExperiment("em3d", scale, paperConfig(96, true));
    const Cycles other = em3d.remapTotalCycles - em3d.remapFlushCycles;
    std::printf("em3d remap() at scale %.2f:\n", scale);
    std::printf("  pages remapped   (paper 1,120):     %llu\n",
                static_cast<unsigned long long>(em3d.remapPages));
    std::printf("  total cycles     (paper 1,659,154): %llu\n",
                static_cast<unsigned long long>(
                    em3d.remapTotalCycles));
    std::printf("  flush cycles     (paper 1,497,067): %llu\n",
                static_cast<unsigned long long>(
                    em3d.remapFlushCycles));
    std::printf("  other cycles     (paper 162,087):   %llu\n",
                static_cast<unsigned long long>(other));
    std::printf("  flush share      (paper 90%%):       %.0f%%\n",
                em3d.remapTotalCycles
                    ? 100.0 *
                          static_cast<double>(em3d.remapFlushCycles) /
                          static_cast<double>(em3d.remapTotalCycles)
                    : 0.0);
    std::printf("  superpages used  (paper 16):        %zu\n",
                em3d.superpages);
    return 0;
}
