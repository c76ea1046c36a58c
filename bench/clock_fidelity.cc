/**
 * @file
 * §2.5 open question: how good are the MTLB's cache-filtered
 * reference bits for CLOCK?
 *
 * The MMC only sees cache fills, so a page whose hot lines stay
 * cached appears unreferenced. The paper flags the risk and declares
 * its evaluation out of scope; this harness performs it.
 *
 * Method: a 1 MB shadow superpage is watched by the CLOCK daemon.
 * Each interval, the program touches a known subset of pages (the
 * ground truth); the daemon then sweeps. A page the daemon calls
 * idle but that was actually touched is a *false idle* — CLOCK would
 * wrongly consider evicting an active page. We sweep the touched
 * set's cache residency from "always cached" (worst case for the
 * MTLB's view) to "mostly missing" (fills reach the MMC, bits are
 * accurate) by varying how many distinct lines each page touch uses.
 *
 * Usage: clock_fidelity
 */

#include <cstdio>
#include <set>

#include "base/random.hh"
#include "os/clock_daemon.hh"
#include "sim/system.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;
constexpr Addr base = 0x10000000;
constexpr unsigned pages = 256;     // 1 MB superpage

struct FidelityResult
{
    double falseIdlePct;    // active pages reported idle
    double trueIdlePct;     // genuinely idle pages reported idle
};

/**
 * Run intervals at a given cache pressure.
 *
 * @param extra_footprint_mb competing data streamed between touches;
 *        0 keeps the hot pages' lines cached (the §2.5 worst case),
 *        larger values evict them so touches produce fills
 */
FidelityResult
run(unsigned extra_footprint_mb)
{
    SystemConfig config;
    config.installedBytes = 64 * MB;
    System sys(config);
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
        for (Addr off = 0;
             off < Addr{extra_footprint_mb} * MB; off += 32)
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

    return {100.0 * false_idle / active_total,
            100.0 * true_idle / idle_total};
}

} // namespace

int
main()
{
    std::printf("=== §2.5 open question: fidelity of cache-filtered "
                "MTLB reference bits for CLOCK\n");
    std::printf("    (1 MB watched superpage, 8 intervals, half the "
                "pages touched per interval)\n\n");
    std::printf("%-22s %14s %14s\n", "cache pressure",
                "false idle", "true idle");

    struct Case
    {
        const char *label;
        unsigned mb;
    };
    for (const Case c : {Case{"none (lines cached)", 0},
                         Case{"mild (1 MB stream)", 1},
                         Case{"heavy (4 MB stream)", 4}}) {
        const auto r = run(c.mb);
        std::printf("%-22s %13.1f%% %13.1f%%\n", c.label,
                    r.falseIdlePct, r.trueIdlePct);
    }

    std::printf(
        "\nfalse idle = active pages the MTLB's bits call idle "
        "(CLOCK would wrongly evict).\nWith the hot lines resident "
        "in the cache the MMC sees no fills and the §2.5 worry\nis "
        "real; under cache pressure the fills reappear and the bits "
        "become accurate.\n");
    return 0;
}
