/**
 * @file
 * Walkthrough of the paper's §2.5/§4 paging mechanism: swapping a
 * shadow-backed superpage out one base page at a time, and faulting
 * pages back in through the MMC's precise-exception path.
 *
 * The sequence demonstrated:
 *   1. remap() builds a 256 KB superpage from 64 scattered frames;
 *   2. the program writes a few pages and reads others — the MTLB
 *      records per-base-page referenced/dirty bits;
 *   3. the OS swaps the superpage out page-wise: only dirty pages
 *      travel to disk, and the CPU TLB's superpage entry survives;
 *   4. the program touches a swapped page: the MMC raises a precise
 *      fault, the kernel reloads just that base page, the access
 *      retries — no other page is disturbed.
 *
 * Usage: pagewise_paging
 */

#include <cstdio>

#include "mmc/memsys.hh"
#include "sim/system.hh"

using namespace mtlbsim;

int
main()
{
    SystemConfig config;
    config.installedBytes = Addr{64} * 1024 * 1024;
    System sys(config);
    Kernel &kernel = sys.kernel();
    Cpu &cpu = sys.cpu();

    const Addr base = 0x10000000;
    const Addr bytes = 256 * 1024;      // one 256 KB superpage
    kernel.addressSpace().addRegion("data", base, bytes, {});

    std::printf("1. remap(): building a 256 KB shadow superpage\n");
    cpu.remap(base, bytes);
    const ShadowSuperpage *sp =
        kernel.addressSpace().findSuperpage(base);
    std::printf("   virtual 0x%llx -> shadow 0x%llx (%llu base "
                "pages, scattered real frames)\n",
                static_cast<unsigned long long>(sp->vbase),
                static_cast<unsigned long long>(sp->shadowBase),
                static_cast<unsigned long long>(sp->numBasePages()));
    std::printf("   frames of pages 0..3: %llu %llu %llu %llu "
                "(discontiguous, as §2.1 promises)\n",
                static_cast<unsigned long long>(
                    kernel.addressSpace().frameOf(base)),
                static_cast<unsigned long long>(
                    kernel.addressSpace().frameOf(base + 0x1000)),
                static_cast<unsigned long long>(
                    kernel.addressSpace().frameOf(base + 0x2000)),
                static_cast<unsigned long long>(
                    kernel.addressSpace().frameOf(base + 0x3000)));

    std::printf("\n2. touching pages: write 0-7, read 8-15, leave "
                "the rest untouched\n");
    for (unsigned p = 0; p < 8; ++p)
        cpu.store(base + p * basePageSize);
    for (unsigned p = 8; p < 16; ++p)
        cpu.load(base + p * basePageSize);

    ShadowPte pte0{}, pte8{}, pte32{};
    const Addr spi0 = sys.physmap().shadowPageIndex(sp->shadowBase);
    sys.memsys().controlOp(cpu.now(), [&](Mmc &mmc) {
        pte0 = mmc.readShadowEntry(spi0 + 0);
        pte8 = mmc.readShadowEntry(spi0 + 8);
        pte32 = mmc.readShadowEntry(spi0 + 32);
        return Cycles{8};
    });
    std::printf("   MTLB per-base-page bits: page0 R=%u M=%u | "
                "page8 R=%u M=%u | page32 R=%u M=%u\n",
                pte0.referenced, pte0.modified, pte8.referenced,
                pte8.modified, pte32.referenced, pte32.modified);

    std::printf("\n3. page-wise swap-out (per-base-page dirty bits, "
                "§2.5)\n");
    const SwapOutResult out =
        kernel.swapOutSuperpagePagewise(base, cpu.now());
    std::printf("   pages written to disk: %u (only the dirty "
                "ones)\n", out.pagesWritten);
    std::printf("   pages dropped clean:   %u\n", out.pagesClean);
    std::printf("   CPU TLB superpage entry still valid: %s\n",
                sys.tlb().probe(base) ? "yes" : "no");

    std::printf("\n4. touching a swapped page: precise MMC fault -> "
                "reload -> retry (§4)\n");
    const Cycles before = cpu.now();
    cpu.load(base + 5 * basePageSize);
    std::printf("   access completed after %llu cycles (includes "
                "one disk read)\n",
                static_cast<unsigned long long>(cpu.now() - before));
    std::printf("   page 5 resident again: %s; page 6 still out: "
                "%s\n",
                kernel.addressSpace().isPagePresent(
                    base + 5 * basePageSize)
                    ? "yes"
                    : "no",
                kernel.addressSpace().isPagePresent(
                    base + 6 * basePageSize)
                    ? "no (bug!)"
                    : "yes");

    std::printf("\nConventional superpages would have paid %llu "
                "disk writes and a full reload;\nthe shadow-backed "
                "superpage paid %u writes and one single-page "
                "fault.\n",
                static_cast<unsigned long long>(sp->numBasePages()),
                out.pagesWritten);
    return 0;
}
