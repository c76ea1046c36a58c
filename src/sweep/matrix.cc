#include "sweep/matrix.hh"

#include <cstdio>
#include <utility>

#include "base/logging.hh"
#include "os/shadow_alloc.hh"
#include "sweep/scenarios.hh"
#include "workloads/workload.hh"

namespace mtlbsim::sweep
{

namespace
{

constexpr Addr MB = 1024 * 1024;

using Jobs = std::vector<SweepJob>;
using Results = std::vector<SweepResult>;

/** @p machine with coarse-grained invariant auditing: cheap
 *  insurance that an ablation exercises only consistent translation
 *  state. */
SystemConfig
audited(SystemConfig machine)
{
    machine.check.enabled = true;
    machine.check.interval = 5'000'000;
    return machine;
}

/** The synthetic scenarios' machine: the default one with 64 MB of
 *  DRAM. */
SystemConfig
machine64()
{
    SystemConfig machine;
    machine.installedBytes = 64 * MB;
    return machine;
}

void
addWorkload(Jobs &jobs, std::string id, std::string workload,
            double scale, SystemConfig config)
{
    SweepJob job;
    job.id = std::move(id);
    job.workload = std::move(workload);
    job.scale = scale;
    job.config = std::move(config);
    jobs.push_back(std::move(job));
}

void
addScenario(Jobs &jobs, std::string id, std::string name,
            SystemConfig config, Scenario scenario)
{
    SweepJob job;
    job.id = std::move(id);
    job.workload = std::move(name);
    job.config = std::move(config);
    job.scenario = std::move(scenario);
    jobs.push_back(std::move(job));
}

/** The result of job @p id; fatal when the sweep has none. */
const SweepResult &
find(const Results &results, const std::string &id)
{
    for (const auto &r : results) {
        if (r.id == id)
            return r;
    }
    fatal("the sweep has no job '", id, "'");
}

double
ratio(Cycles num, Cycles den)
{
    return static_cast<double>(num) / static_cast<double>(den);
}

unsigned long long
ull(double v)
{
    return static_cast<unsigned long long>(v);
}

// ---------------------------------------------------------------
// Figure 2: static partitioning of a 512 MB shadow ("pseudo-
// physical") address space into superpage buckets, plus the
// bucket-vs-buddy ablation the paper's §2.4 suggests. The partition
// is a fixed table; each seed's job checks that the allocator holds
// it before driving the allocators to exhaustion.

constexpr unsigned fig2Seeds = 5;

/** Figure 2's name for each shadow superpage size class. */
constexpr const char *fig2SizeNames[] = {
    "4KB",    "16KB",   "64KB",    "256KB",
    "1024KB", "4096KB", "16384KB", "64MB"};

std::string
fig2SeedId(unsigned seed)
{
    return "fig2/seed" + std::to_string(seed);
}

/** A small machine without an MTLB, for fig2's allocator runs,
 *  which never drive theirs (the kernel keeps the first 8 MB). */
SystemConfig
idleMachine()
{
    SystemConfig machine;
    machine.mtlbEnabled = false;
    machine.installedBytes = 16 * MB;
    return machine;
}

void
fig2Jobs(Jobs &jobs, double, const SystemConfig &)
{
    for (unsigned seed = 1; seed <= fig2Seeds; ++seed) {
        addScenario(jobs, fig2SeedId(seed), "fig2", idleMachine(),
                    [seed](System &sys) {
                        return fig2Exhaustion(sys, seed);
                    });
    }
}

void
printFig2(const Results &results, double)
{
    std::printf("=== Figure 2: partitioning of the 512 MB "
                "pseudo-physical address space\n\n");
    std::printf("%-12s %8s %16s\n", "Superpage", "Count",
                "Address Space");
    std::printf("%-12s %8s %16s\n", "Size", "", "Extent");

    const auto partition = BucketShadowAllocator::defaultPartition();
    Addr total = 0;
    for (unsigned c = minShadowSizeClass; c <= maxShadowSizeClass;
         ++c) {
        const Addr extent = partition[c] * pageSizeForClass(c);
        total += extent;
        std::printf("%-12s %8llu %14lluMB\n", fig2SizeNames[c],
                    static_cast<unsigned long long>(partition[c]),
                    static_cast<unsigned long long>(extent / MB));
    }
    std::printf("%-12s %8s %14lluMB\n", "total", "",
                static_cast<unsigned long long>(total / MB));

    std::printf("\n=== ablation: bucket (paper) vs buddy (§2.4 "
                "future work) under a maximal-superpage request "
                "mix\n\n");
    std::printf("%-8s %20s %20s\n", "seed", "bucket delivered",
                "buddy delivered");
    double bucket_sum = 0, buddy_sum = 0;
    for (unsigned seed = 1; seed <= fig2Seeds; ++seed) {
        const auto &r = find(results, fig2SeedId(seed));
        const Addr b1 = ull(r.value("bucket_bytes"));
        const Addr b2 = ull(r.value("buddy_bytes"));
        bucket_sum += static_cast<double>(b1);
        buddy_sum += static_cast<double>(b2);
        std::printf("%-8u %18lluMB %18lluMB\n", seed,
                    static_cast<unsigned long long>(b1 / MB),
                    static_cast<unsigned long long>(b2 / MB));
    }
    std::printf("\nbuddy delivers %.1f%% of the region before first "
                "failure vs %.1f%% for buckets\n",
                100.0 * buddy_sum / fig2Seeds / (512 * MB),
                100.0 * bucket_sum / fig2Seeds / (512 * MB));
    std::printf("(the buddy allocator cannot strand capacity in a "
                "depleted size class)\n");
}

// ---------------------------------------------------------------
// Figure 3: normalized runtimes (and TLB-miss-time fractions) for
// the five benchmarks across CPU TLB sizes, with and without a
// 128-entry 2-way MTLB. The base system for normalization is the
// 96-entry TLB with no MTLB, exactly as in the paper (§3.4). Also
// evaluates the §3.4 textual claims, including radix at a 256-entry
// TLB (13.5% miss time in the paper).

constexpr unsigned fig3Tlbs[] = {64, 96, 128};

std::string
fig3Id(const std::string &workload, unsigned tlb, bool mtlb)
{
    return "fig3/" + workload + "/tlb" + std::to_string(tlb) +
           (mtlb ? "+mtlb" : "");
}

void
fig3Jobs(Jobs &jobs, double scale, const SystemConfig &)
{
    for (const auto &workload : allWorkloadNames()) {
        for (const unsigned tlb : fig3Tlbs) {
            for (const bool mtlb : {false, true}) {
                addWorkload(jobs, fig3Id(workload, tlb, mtlb), workload,
                            scale, paperConfig(tlb, mtlb));
            }
        }
    }
    // The §3.4 textual claim: radix still misses hard at 256 entries.
    addWorkload(jobs, fig3Id("radix", 256, false), "radix", scale,
                paperConfig(256, false));
}

void
printFig3(const Results &results, double scale)
{
    auto at = [&](const std::string &workload, unsigned tlb,
                  bool mtlb) -> const ExperimentResult & {
        return find(results, fig3Id(workload, tlb, mtlb)).metrics;
    };
    // The columns: each TLB size without the MTLB, then with it.
    auto header = [] {
        std::printf("%-12s", "");
        for (const bool mtlb : {false, true}) {
            for (const unsigned tlb : fig3Tlbs)
                std::printf("  %5u%-6s", tlb, mtlb ? "+MTLB" : "");
        }
        std::printf("\n");
    };

    std::printf("=== Figure 3: normalized runtimes, 5 programs x "
                "{64,96,128}-entry TLB x {no MTLB, 128-entry 2-way "
                "MTLB}\n");
    std::printf("=== base system = 96-entry TLB, no MTLB "
                "(scale %.2f)\n\n", scale);

    std::printf("--- normalized total runtime (lower is better)\n");
    header();
    for (const auto &name : allWorkloadNames()) {
        const Cycles base = at(name, 96, false).totalCycles;
        std::printf("%-12s", name.c_str());
        for (const bool mtlb : {false, true}) {
            for (const unsigned tlb : fig3Tlbs) {
                std::printf("  %11.3f",
                            ratio(at(name, tlb, mtlb).totalCycles, base));
            }
        }
        std::printf("\n");
    }

    std::printf("\n--- TLB miss handling, %% of total runtime "
                "(Fig 3's shaded fraction)\n");
    header();
    for (const auto &name : allWorkloadNames()) {
        std::printf("%-12s", name.c_str());
        for (const bool mtlb : {false, true}) {
            for (const unsigned tlb : fig3Tlbs) {
                std::printf("  %10.1f%%",
                            100.0 * at(name, tlb, mtlb).tlbMissFraction);
            }
        }
        std::printf("\n");
    }

    // §3.4 textual claims.
    std::printf("\n=== §3.4 claims check\n");

    unsigned over20 = 0;
    for (const auto &name : allWorkloadNames()) {
        if (at(name, 64, false).tlbMissFraction > 0.20)
            ++over20;
    }
    std::printf("programs with >20%% miss time at 64 entries "
                "(paper: 4 of 5): %u of 5\n", over20);

    std::printf("radix miss time at 256 entries (paper: 13.5%%): "
                "%.1f%%\n", 100.0 * at("radix", 256, false).tlbMissFraction);

    double worst_mtlb = 0;
    std::string worst_name;
    for (const auto &name : allWorkloadNames()) {
        for (const unsigned tlb : fig3Tlbs) {
            const double frac = at(name, tlb, true).tlbMissFraction;
            if (frac > worst_mtlb) {
                worst_mtlb = frac;
                worst_name = name + " (" + std::to_string(tlb) + "+M)";
            }
        }
    }
    std::printf("worst MTLB-config miss time (paper: <5%%, em3d "
                "worst): %.1f%% (%s)\n", 100.0 * worst_mtlb,
                worst_name.c_str());

    std::printf("\n--- MTLB speedup at each TLB size "
                "(paper: 5-20%% for miss-heavy programs)\n");
    std::printf("%-12s  %8s  %8s  %8s\n", "", "64", "96", "128");
    for (const auto &name : allWorkloadNames()) {
        std::printf("%-12s", name.c_str());
        for (const unsigned tlb : fig3Tlbs) {
            std::printf("  %7.3fx", ratio(at(name, tlb, false).totalCycles,
                                          at(name, tlb, true).totalCycles));
        }
        std::printf("\n");
    }

    std::printf("\n--- headline equivalence: 64-entry TLB + MTLB vs "
                "128-entry TLB alone\n");
    for (const auto &name : allWorkloadNames()) {
        const double r = ratio(at(name, 64, true).totalCycles,
                               at(name, 128, false).totalCycles);
        std::printf("%-12s  %.3f  (%s)\n", name.c_str(), r,
                    r <= 1.02 ? "64+MTLB wins or ties"
                              : "128-entry TLB wins");
    }
}

// ---------------------------------------------------------------
// Figure 4: em3d's sensitivity to MTLB size and associativity on a
// 128-entry CPU TLB. (A): the no-MTLB system's ~2% advantage over
// the default 128-entry/2-way MTLB is erased by doubling MTLB size
// or associativity, with diminishing returns beyond that. (B): the
// delay the MTLB adds per cache fill ranges from ~10 cycles (small,
// low-associativity MTLBs) down to ~1.5, with a 1-MMC-cycle floor
// from the shadow check (§2.2).

constexpr unsigned fig4Sizes[] = {64, 128, 256, 512};
constexpr unsigned fig4Assocs[] = {1, 2, 4, 8};
constexpr const char *fig4BaseId = "fig4/em3d/no-mtlb";

std::string
fig4Id(unsigned entries, unsigned assoc)
{
    return "fig4/em3d/m" + std::to_string(entries) + "x" +
           std::to_string(assoc);
}

void
fig4Jobs(Jobs &jobs, double scale, const SystemConfig &)
{
    addWorkload(jobs, fig4BaseId, "em3d", scale, paperConfig(128, false));
    for (const unsigned entries : fig4Sizes) {
        for (const unsigned assoc : fig4Assocs) {
            addWorkload(jobs, fig4Id(entries, assoc), "em3d", scale,
                        paperConfig(128, true, entries, assoc));
        }
    }
}

/** One Figure 4 table: a row per MTLB size, a column per
 *  associativity, @p cell printing each configuration's entry. */
template <typename Cell>
void
fig4Table(const Results &results, Cell cell)
{
    std::printf("%-10s", "entries");
    for (const unsigned a : fig4Assocs)
        std::printf("  %6u-way", a);
    std::printf("\n");
    for (const unsigned s : fig4Sizes) {
        std::printf("%-10u", s);
        for (const unsigned a : fig4Assocs)
            cell(find(results, fig4Id(s, a)).metrics);
        std::printf("\n");
    }
}

void
printFig4(const Results &results, double scale)
{
    std::printf("=== Figure 4: em3d sensitivity to MTLB size and "
                "associativity (128-entry CPU TLB, scale %.2f)\n\n",
                scale);

    const auto &base = find(results, fig4BaseId).metrics;
    auto at = [&](unsigned entries,
                  unsigned assoc) -> const ExperimentResult & {
        return find(results, fig4Id(entries, assoc)).metrics;
    };

    std::printf("--- (A) total runtime normalized to the no-MTLB "
                "128-entry-TLB system\n");
    std::printf("          no-MTLB baseline: %llu cycles (1.000)\n",
                static_cast<unsigned long long>(base.totalCycles));
    fig4Table(results, [&](const ExperimentResult &r) {
        std::printf("  %10.3f", ratio(r.totalCycles, base.totalCycles));
    });

    std::printf("\n--- (B) average CPU cycles per cache fill "
                "(no-MTLB baseline: %.2f)\n", base.avgFillCycles);
    fig4Table(results, [](const ExperimentResult &r) {
        std::printf("  %10.2f", r.avgFillCycles);
    });

    std::printf("\n--- (B') added fill delay vs the standard system "
                "(paper: 10 down to 1.5 cycles)\n");
    fig4Table(results, [&](const ExperimentResult &r) {
        std::printf("  %10.2f", r.avgFillCycles - base.avgFillCycles);
    });

    std::printf("\n--- MTLB hit rates (paper: 91%% for the default "
                "128-entry 2-way)\n");
    fig4Table(results, [](const ExperimentResult &r) {
        std::printf("  %9.1f%%", 100.0 * r.mtlbHitRate);
    });

    // §3.5 claims.
    std::printf("\n=== §3.5 claims check\n");
    std::printf("default 128/2-way vs no-MTLB (paper: ~2%% slower): "
                "%+.1f%%\n",
                100.0 * (ratio(at(128, 2).totalCycles, base.totalCycles) -
                         1.0));
    std::printf("doubling size (256/2-way) erases it: %+.1f%%\n",
                100.0 * (ratio(at(256, 2).totalCycles, base.totalCycles) -
                         1.0));
    std::printf("doubling assoc (128/4-way) erases it: %+.1f%%\n",
                100.0 * (ratio(at(128, 4).totalCycles, base.totalCycles) -
                         1.0));
    std::printf("em3d cache hit rate (paper: ~84%%): %.1f%%\n",
                100.0 * base.cacheHitRate);
}

// ---------------------------------------------------------------
// §3.3: superpage initialisation costs. The paper reports ~1,400
// CPU cycles to flush a remapped 4 KB page from the cache, ~11,400
// to copy a 4 KB page whose source is warm in the cache (what a
// copy-based superpage scheme would pay instead), and an em3d run
// that remaps 1,120 pages of initialised dynamic memory in 1,659,154
// cycles, 1,497,067 of them cache flushing.

void
sec33Jobs(Jobs &jobs, double scale, const SystemConfig &)
{
    addScenario(jobs, "sec33/flush", "sec33", paperConfig(96, true),
                flushCost);
    addScenario(jobs, "sec33/copy", "sec33", paperConfig(96, false),
                warmCopyCost);
    addWorkload(jobs, "sec33/em3d", "em3d", scale, paperConfig(96, true));
}

void
printSec33(const Results &results, double scale)
{
    std::printf("=== §3.3: superpage initialisation costs\n\n");

    const double flush =
        find(results, "sec33/flush").value("flush_cycles_per_page");
    std::printf("cache flush per 4 KB page (paper ~1,400 cycles): "
                "%.0f cycles\n", flush);
    const double copy = find(results, "sec33/copy").value("copy_cycles");
    std::printf("warm 4 KB page copy (paper ~11,400 cycles):      "
                "%.0f cycles\n", copy);
    std::printf("flush/copy advantage of remapping over copying:  "
                "%.1fx\n\n", copy / flush);

    const auto &em3d = find(results, "sec33/em3d").metrics;
    const Cycles other = em3d.remapTotalCycles - em3d.remapFlushCycles;
    std::printf("em3d remap() at scale %.2f:\n", scale);
    std::printf("  pages remapped   (paper 1,120):     %llu\n",
                static_cast<unsigned long long>(em3d.remapPages));
    std::printf("  total cycles     (paper 1,659,154): %llu\n",
                static_cast<unsigned long long>(em3d.remapTotalCycles));
    std::printf("  flush cycles     (paper 1,497,067): %llu\n",
                static_cast<unsigned long long>(em3d.remapFlushCycles));
    std::printf("  other cycles     (paper 162,087):   %llu\n",
                static_cast<unsigned long long>(other));
    std::printf("  flush share      (paper 90%%):       %.0f%%\n",
                em3d.remapTotalCycles
                    ? 100.0 * ratio(em3d.remapFlushCycles,
                                    em3d.remapTotalCycles)
                    : 0.0);
    std::printf("  superpages used  (paper 16):        %zu\n",
                em3d.superpages);
}

// ---------------------------------------------------------------
// §2.5: per-base-page swapping of shadow superpages vs conventional
// whole-superpage swapping. The MTLB's per-base-page dirty bits let
// the OS write back only the base pages that were modified when it
// evicts a superpage; a conventional superpage has one dirty bit and
// must write everything (the effect behind Talluri et al.'s ~60%
// working-set inflation for large-page-only systems).

constexpr unsigned swapDirtyPcts[] = {0, 5, 10, 25, 50, 75, 100};

std::string
swapId(unsigned dirty_pct, bool pagewise)
{
    return "swap/dirty" + std::to_string(dirty_pct) +
           (pagewise ? "/pagewise" : "/whole");
}

void
swapJobs(Jobs &jobs, double, const SystemConfig &)
{
    for (const unsigned pct : swapDirtyPcts) {
        for (const bool pagewise : {true, false}) {
            addScenario(jobs, swapId(pct, pagewise), "swap",
                        audited(machine64()),
                        [pct, pagewise](System &sys) {
                            return swapOut(sys, pct, pagewise);
                        });
        }
    }
}

void
printSwap(const Results &results, double)
{
    std::printf("=== §2.5: per-base-page vs whole-superpage "
                "swap-out of a 1 MB (256-page) shadow superpage\n\n");
    std::printf("%-10s %18s %18s %14s\n", "dirty %",
                "pagewise writes", "whole-sp writes", "I/O saved");

    for (const unsigned pct : swapDirtyPcts) {
        const double pw =
            find(results, swapId(pct, true)).value("pages_written");
        const double whole =
            find(results, swapId(pct, false)).value("pages_written");
        std::printf("%-10u %18llu %18llu %13.0f%%\n", pct, ull(pw),
                    ull(whole),
                    whole ? 100.0 * (whole - pw) / whole : 0.0);
    }

    std::printf("\nconventional superpages must write every base "
                "page; the MTLB's per-base-page dirty bits write "
                "only what changed.\n");
}

// ---------------------------------------------------------------
// §6: no-copy page recoloring via shadow memory [Bershad et al.].
// When two hot pages collide in a physically indexed direct-mapped
// cache, remap one to a shadow address of a different color instead
// of copying it to a different frame. Three policies: live with the
// conflict misses, copy each offender to a frame of a free color
// (~11 K cycles per page, §3.3), or remap it to a recolored shadow
// page (~1.5 K cycles, no copy).

struct RecolorPolicy
{
    const char *name;
    Recolor policy;
};

constexpr RecolorPolicy recolorPolicies[] = {
    {"none", Recolor::None},
    {"copy", Recolor::Copy},
    {"shadow", Recolor::Shadow},
};

std::string
recolorId(const RecolorPolicy &p)
{
    return std::string("recolor/") + p.name;
}

void
recolorJobs(Jobs &jobs, double, const SystemConfig &)
{
    SystemConfig machine = audited(machine64());
    machine.cache.virtuallyIndexed = false;
    for (const auto &p : recolorPolicies) {
        addScenario(jobs, recolorId(p), "recolor", machine,
                    [policy = p.policy](System &sys) {
                        return recolorPairs(sys, policy);
                    });
    }
}

void
printRecolor(const Results &results, double)
{
    std::printf("=== §6 ablation: no-copy page recoloring "
                "(physically indexed 512 KB cache,\n    %u colliding "
                "page pairs, %u hammer rounds)\n\n", recolorPairCount,
                recolorRounds);
    std::printf("%-10s %16s %16s %14s\n", "policy", "fix cost (cyc)",
                "hammer cycles", "cache misses");
    for (const auto &p : recolorPolicies) {
        const auto &r = find(results, recolorId(p));
        const std::string fix =
            p.policy == Recolor::None
                ? "-"
                : std::to_string(ull(r.value("fix_cycles")));
        std::printf("%-10s %16s %16llu %14llu\n", p.name, fix.c_str(),
                    ull(r.value("hammer_cycles")),
                    ull(r.value("cache_misses")));
    }

    std::printf("\nshadow recoloring removes the conflict for a "
                "fraction of the copy cost\n(and the data never "
                "moves, so no copy-back is ever needed either).\n");
}

// ---------------------------------------------------------------
// §4: all-shadow operation. On machines whose whole physical address
// range is populated with DRAM there are no free addresses for
// shadow regions; the paper's escape routes *all* virtual accesses
// through shadow memory and lets the kernel use real addresses
// privately. The cost is a heavier MTLB load, which §4 predicts
// "might need to expand its size and/or associativity" to keep
// programs that do not use superpages fast.

constexpr unsigned allShadowMtlbs[] = {64, 128, 256, 512, 1024};

std::string
allShadowId(unsigned mtlb_entries, bool all_shadow)
{
    return "allshadow/mtlb" + std::to_string(mtlb_entries) +
           (all_shadow ? "/all-shadow" : "/mixed");
}

void
allShadowJobs(Jobs &jobs, double, const SystemConfig &)
{
    for (const unsigned entries : allShadowMtlbs) {
        for (const bool all_shadow : {false, true}) {
            SystemConfig machine = audited(machine64());
            machine.kernel.allShadowMode = all_shadow;
            machine.mtlb.numEntries = entries;
            machine.mtlb.associativity = 2;
            addScenario(jobs, allShadowId(entries, all_shadow),
                        "allshadow", machine, superpageAgnostic);
        }
    }
}

void
printAllShadow(const Results &results, double)
{
    std::printf("=== §4 ablation: all-shadow operation vs mixed "
                "mode, across MTLB sizes\n    (TLB-friendly 2 MB "
                "sequential workload; 2-way MTLB)\n\n");
    std::printf("%-10s %16s %16s %12s\n", "MTLB", "mixed (cyc)",
                "all-shadow (cyc)", "overhead");

    for (const unsigned entries : allShadowMtlbs) {
        const Cycles mixed =
            find(results, allShadowId(entries, false)).metrics.totalCycles;
        const Cycles shadow =
            find(results, allShadowId(entries, true)).metrics.totalCycles;
        std::printf("%-10u %16llu %16llu %+11.1f%%\n", entries,
                    static_cast<unsigned long long>(mixed),
                    static_cast<unsigned long long>(shadow),
                    100.0 * (ratio(shadow, mixed) - 1.0));
    }

    std::printf("\nAll-shadow mode pays the MTLB's per-operation "
                "check and fill costs on every\naccess; growing the "
                "MTLB recovers the difference, exactly as §4 "
                "anticipates.\n");
}

// ---------------------------------------------------------------
// §5: online superpage promotion vs explicit instrumentation. The
// paper instruments programs by hand (remap() calls and a modified
// sbrk()); Romer et al. promote regions online, paying promotion
// costs only where observed TLB misses justify them, a policy whose
// parameters "would need to be tweaked to reflect the reduced cost
// of exploiting superpages" here. Each program runs with base pages
// only, with its explicit instrumentation, and with no
// instrumentation under the kernel's competitive promotion policy
// at two thresholds.

struct PromotionMode
{
    const char *name;
    bool explicitRemap;
    bool online;
    Cycles threshold;
};

constexpr PromotionMode promotionModes[] = {
    {"none", false, false, 20'000},
    {"explicit", true, false, 20'000},
    {"online20k", false, true, 20'000},
    {"online5k", false, true, 5'000},
};

std::string
promotionId(const std::string &workload, const char *mode)
{
    return "promotion/" + workload + "/" + mode;
}

void
promotionJobs(Jobs &jobs, double scale, const SystemConfig &)
{
    for (const auto &workload : allWorkloadNames()) {
        for (const auto &mode : promotionModes) {
            SystemConfig machine = audited(paperConfig(96, true));
            machine.kernel.honorExplicitRemap = mode.explicitRemap;
            machine.kernel.onlinePromotion = mode.online;
            machine.kernel.promotionThresholdCycles = mode.threshold;
            addWorkload(jobs, promotionId(workload, mode.name), workload,
                        scale, machine);
        }
    }
}

void
printPromotion(const Results &results, double scale)
{
    std::printf("=== §5 ablation: online superpage promotion "
                "(96-entry TLB, 128-entry 2-way MTLB, scale %.2f)\n\n",
                scale);
    std::printf("%-12s %14s %14s %14s %14s %12s\n", "workload",
                "none", "explicit", "online(20k)", "online(5k)",
                "sp(online)");

    for (const auto &name : allWorkloadNames()) {
        auto at = [&](const char *mode) -> const ExperimentResult & {
            return find(results, promotionId(name, mode)).metrics;
        };
        const Cycles base = at("none").totalCycles;
        std::printf("%-12s %14.3f %14.3f %14.3f %14.3f %12zu\n",
                    name.c_str(), 1.0,
                    ratio(at("explicit").totalCycles, base),
                    ratio(at("online20k").totalCycles, base),
                    ratio(at("online5k").totalCycles, base),
                    at("online5k").superpages);
    }

    std::printf("\n(normalized runtime; lower is better. 'sp' = "
                "superpages the online policy created.)\n");
    std::printf("Online promotion recovers most of the explicit "
                "instrumentation's benefit with no\nprogram changes; "
                "a lower threshold promotes more eagerly, as the "
                "paper's §5 remark\nabout retuned parameters "
                "anticipates.\n");
}

// ---------------------------------------------------------------
// §6: Jouppi-style stream buffers hosted in the Impulse MMC, on the
// five benchmarks (whose streaming behaviour varies widely) on the
// standard MTLB machine, sweeping the buffer count.

constexpr unsigned streamBufferCounts[] = {0, 2, 4, 8};

std::string
streambufId(const std::string &workload, unsigned buffers)
{
    return "streambuf/" + workload + "/buffers" + std::to_string(buffers);
}

void
streambufJobs(Jobs &jobs, double scale, const SystemConfig &)
{
    for (const auto &workload : allWorkloadNames()) {
        for (const unsigned buffers : streamBufferCounts) {
            SystemConfig machine = audited(paperConfig(96, true));
            if (buffers > 0) {
                machine.streamBuffers.enabled = true;
                machine.streamBuffers.numBuffers = buffers;
                machine.streamBuffers.depth = 4;
            }
            addWorkload(jobs, streambufId(workload, buffers), workload,
                        scale, machine);
        }
    }
}

void
printStreambuf(const Results &results, double scale)
{
    std::printf("=== §6 ablation: MMC stream buffers on the MTLB "
                "machine (96-entry TLB, scale %.2f)\n\n", scale);
    std::printf("%-12s %12s %12s %12s %12s\n", "workload", "none",
                "2 buffers", "4 buffers", "8 buffers");

    for (const auto &name : allWorkloadNames()) {
        const Cycles base =
            find(results, streambufId(name, 0)).metrics.totalCycles;
        std::printf("%-12s", name.c_str());
        for (const unsigned buffers : streamBufferCounts) {
            std::printf(" %12.3f",
                        ratio(find(results, streambufId(name, buffers))
                                  .metrics.totalCycles,
                              base));
        }
        std::printf("\n");
    }

    std::printf("\n(normalized runtime; lower is better. Streaming "
                "workloads — radix's sequential\nphases, compress's "
                "buffers — benefit most; pointer-chasers barely "
                "move.)\n");
}

// ---------------------------------------------------------------
// §1/§6 projection: the MTLB is "likely to be even more effective on
// applications with significantly larger working sets and worse
// spatial locality, such as ... large databases". The paper cannot
// evaluate this (its benchmarks top out near 20 MB); here an
// OLTP-style database grows from 1/8 of its full size to all of it
// on the paper's 128-entry-TLB machine. The footprints are the
// experiment's axis, so they ignore --scale: scaled down, oltp's
// record and prealloc floors would give the small rows one database.

constexpr double commercialScales[] = {0.125, 0.25, 0.5, 1.0};

std::string
commercialId(double scale, bool mtlb)
{
    char id[64];
    std::snprintf(id, sizeof(id), "commercial/scale%g/%s", scale,
                  mtlb ? "mtlb" : "no-mtlb");
    return id;
}

void
commercialJobs(Jobs &jobs, double, const SystemConfig &)
{
    for (const double scale : commercialScales) {
        for (const bool mtlb : {false, true}) {
            addWorkload(jobs, commercialId(scale, mtlb), "oltp", scale,
                        paperConfig(128, mtlb));
        }
    }
}

void
printCommercial(const Results &results, double)
{
    std::printf("=== §1/§6 projection: MTLB benefit vs database "
                "footprint (128-entry CPU TLB)\n\n");
    std::printf("%-10s %14s %9s %14s %9s %9s\n", "scale",
                "conv (cyc)", "miss%", "MTLB (cyc)", "miss%",
                "speedup");

    for (const double scale : commercialScales) {
        const auto &base = find(results, commercialId(scale, false)).metrics;
        const auto &with = find(results, commercialId(scale, true)).metrics;
        std::printf("%-10.3f %14llu %8.1f%% %14llu %8.2f%% %8.3fx\n",
                    scale,
                    static_cast<unsigned long long>(base.totalCycles),
                    100.0 * base.tlbMissFraction,
                    static_cast<unsigned long long>(with.totalCycles),
                    100.0 * with.tlbMissFraction,
                    ratio(base.totalCycles, with.totalCycles));
    }

    std::printf("\nThe conventional system's miss time — and the "
                "MTLB's speedup — grow with the\ndatabase, exactly "
                "the trend the paper projects for commercial "
                "workloads.\n");
}

// ---------------------------------------------------------------
// §2.5's open question, which the paper declares out of scope: the
// MMC only sees cache fills, so a page whose hot lines stay cached
// looks unreferenced to CLOCK. Competing traffic sweeps the touched
// pages' cache residency from "always cached" (the worst case for
// the MTLB's view) to "mostly missing" (fills reach the MMC).

struct ClockPressure
{
    const char *label;
    unsigned streamMb;
};

constexpr ClockPressure clockPressures[] = {
    {"none (lines cached)", 0},
    {"mild (1 MB stream)", 1},
    {"heavy (4 MB stream)", 4},
};

std::string
clockId(unsigned stream_mb)
{
    return "clock/stream" + std::to_string(stream_mb) + "mb";
}

void
clockJobs(Jobs &jobs, double, const SystemConfig &)
{
    for (const auto &p : clockPressures) {
        addScenario(jobs, clockId(p.streamMb), "clock", machine64(),
                    [mb = p.streamMb](System &sys) {
                        return clockFidelity(sys, mb);
                    });
    }
}

void
printClock(const Results &results, double)
{
    std::printf("=== §2.5 open question: fidelity of cache-filtered "
                "MTLB reference bits for CLOCK\n");
    std::printf("    (1 MB watched superpage, 8 intervals, half the "
                "pages touched per interval)\n\n");
    std::printf("%-22s %14s %14s\n", "cache pressure",
                "false idle", "true idle");
    for (const auto &p : clockPressures) {
        const auto &r = find(results, clockId(p.streamMb));
        std::printf("%-22s %13.1f%% %13.1f%%\n", p.label,
                    r.value("false_idle_pct"), r.value("true_idle_pct"));
    }

    std::printf(
        "\nfalse idle = active pages the MTLB's bits call idle "
        "(CLOCK would wrongly evict).\nWith the hot lines resident "
        "in the cache the MMC sees no fills and the §2.5 worry\nis "
        "real; under cache pressure the fills reappear and the bits "
        "become accurate.\n");
}

// ---------------------------------------------------------------
// The golden baselines: each paper program on the caller's machine,
// plus the multi-core baseline, a 2-core machine time-slicing a
// 4-process mix, which pins scheduler interleaving, shootdown
// counts, and the per-core stat layout.

void
goldenJobs(Jobs &jobs, double scale, const SystemConfig &machine)
{
    for (const auto &workload : allWorkloadNames())
        addWorkload(jobs, workload, workload, scale, machine);

    SweepJob mix;
    mix.id = "multicore_mix";
    mix.workload = "multicore_mix";
    mix.scale = scale;
    mix.config = machine;
    mix.config.cores = 2;
    mix.processes = {"compress95", "vortex", "em3d", "compress95"};
    jobs.push_back(std::move(mix));
}

/** One experiment: how to build its jobs, and its tables. */
struct Experiment
{
    const char *name;
    /** Append the jobs at dataset scale @p scale; @p base is the
     *  caller's machine, which only golden runs on. */
    void (*jobs)(Jobs &jobs, double scale, const SystemConfig &base);
    /** Null when the experiment has no tables. */
    SweepMatrix::Printer print;
};

/** Every experiment, in the order "all" runs and prints them. */
constexpr Experiment experiments[] = {
    {"fig2", fig2Jobs, printFig2},
    {"fig3", fig3Jobs, printFig3},
    {"fig4", fig4Jobs, printFig4},
    {"sec33", sec33Jobs, printSec33},
    {"swap", swapJobs, printSwap},
    {"recolor", recolorJobs, printRecolor},
    {"allshadow", allShadowJobs, printAllShadow},
    {"promotion", promotionJobs, printPromotion},
    {"streambuf", streambufJobs, printStreambuf},
    {"commercial", commercialJobs, printCommercial},
    {"clock", clockJobs, printClock},
    {"golden", goldenJobs, nullptr},
};

/** The pseudo-matrix that runs every experiment with tables. */
constexpr const char *allName = "all";

} // namespace

const SweepJob &
SweepMatrix::job(const std::string &id) const
{
    for (const auto &j : jobs) {
        if (j.id == id)
            return j;
    }
    fatal("matrix '", name, "' has no job '", id, "'");
}

void
SweepMatrix::printTables(const std::vector<SweepResult> &results) const
{
    for (std::size_t i = 0; i < printers.size(); ++i) {
        if (i)
            std::printf("\n");
        printers[i](results, scale);
    }
}

SystemConfig
paperConfig(unsigned tlb_entries, bool mtlb_enabled,
            unsigned mtlb_entries, unsigned mtlb_assoc)
{
    SystemConfig config;
    config.tlbEntries = tlb_entries;
    config.mtlbEnabled = mtlb_enabled;
    config.mtlb.numEntries = mtlb_entries;
    config.mtlb.associativity = mtlb_assoc;
    return config;
}

SweepMatrix
fig3Matrix(double scale)
{
    return makeMatrix("fig3", scale, SystemConfig{});
}

SweepMatrix
goldenMatrix(double scale, const SystemConfig &machine)
{
    return makeMatrix("golden", scale, machine);
}

std::vector<std::string>
matrixNames()
{
    std::vector<std::string> names;
    for (const auto &e : experiments)
        names.emplace_back(e.name);
    names.emplace_back(allName);
    return names;
}

SweepMatrix
makeMatrix(const std::string &name, double scale,
           const SystemConfig &base)
{
    SweepMatrix m;
    m.name = name;
    m.scale = scale;
    bool known = false;
    for (const auto &e : experiments) {
        if (name == e.name || (name == allName && e.print)) {
            known = true;
            e.jobs(m.jobs, scale, base);
            if (e.print)
                m.printers.push_back(e.print);
        }
    }
    if (!known) {
        std::string expected;
        for (const auto &e : experiments)
            expected += std::string(e.name) + ", ";
        fatal("unknown sweep matrix '", name, "'; expected ", expected,
              "or ", allName);
    }
    return m;
}

} // namespace mtlbsim::sweep
