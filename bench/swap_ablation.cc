/**
 * @file
 * §2.5 ablation: per-base-page swapping of shadow superpages vs
 * conventional whole-superpage swapping.
 *
 * The MTLB's per-base-page dirty bits let the OS write back only the
 * base pages that were actually modified when evicting a superpage;
 * a conventional superpage has a single dirty bit and must write
 * everything (the effect behind Talluri et al.'s reported ~60%
 * working-set inflation for large-page-only systems).
 *
 * This harness dirties a varying fraction of a superpage's base
 * pages and reports disk pages written and CPU cycles for the two
 * policies.
 *
 * Usage: swap_ablation
 */

#include <cstdio>

#include "mmc/memsys.hh"
#include "sim/system.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;

struct Outcome
{
    unsigned written;
    unsigned clean;
    Cycles cycles;
};

/** Set up a 1 MB shadow superpage with @p dirty_pct of its base
 *  pages dirtied, then swap it out with the chosen policy. */
Outcome
runSwap(unsigned dirty_pct, bool pagewise)
{
    SystemConfig config;
    config.installedBytes = 64 * MB;
    // Coarse-grained invariant auditing: cheap insurance that the
    // ablation exercises only consistent translation state.
    config.check.enabled = true;
    config.check.interval = 5'000'000;
    System sys(config);
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
    return {r.pagesWritten, r.pagesClean, r.cycles};
}

} // namespace

int
main()
{
    std::printf("=== §2.5: per-base-page vs whole-superpage "
                "swap-out of a 1 MB (256-page) shadow superpage\n\n");
    std::printf("%-10s %18s %18s %14s\n", "dirty %",
                "pagewise writes", "whole-sp writes", "I/O saved");

    for (unsigned pct : {0u, 5u, 10u, 25u, 50u, 75u, 100u}) {
        const Outcome pw = runSwap(pct, true);
        const Outcome whole = runSwap(pct, false);
        std::printf("%-10u %18u %18u %13.0f%%\n", pct, pw.written,
                    whole.written,
                    whole.written
                        ? 100.0 *
                              static_cast<double>(whole.written -
                                                  pw.written) /
                              static_cast<double>(whole.written)
                        : 0.0);
    }

    std::printf("\nconventional superpages must write every base "
                "page; the MTLB's per-base-page dirty bits write "
                "only what changed.\n");
    return 0;
}
