/**
 * @file
 * Figure 2 reproduction: static partitioning of a 512 MB shadow
 * ("pseudo-physical") address space into superpage buckets — plus
 * the bucket-vs-buddy ablation the paper's §2.4 suggests.
 *
 * Usage: fig2_partition
 */

#include <cstdio>
#include <vector>

#include "base/random.hh"
#include "os/shadow_alloc.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;
const AddrRange shadow512{0x80000000, 512 * MB};

const char *
sizeName(unsigned c)
{
    static const char *names[] = {"4KB",    "16KB",  "64KB",
                                  "256KB",  "1024KB", "4096KB",
                                  "16384KB", "64MB"};
    return names[c];
}

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

} // namespace

int
main()
{
    std::printf("=== Figure 2: partitioning of the 512 MB "
                "pseudo-physical address space\n\n");
    std::printf("%-12s %8s %16s\n", "Superpage", "Count",
                "Address Space");
    std::printf("%-12s %8s %16s\n", "Size", "", "Extent");

    const auto partition = BucketShadowAllocator::defaultPartition();
    BucketShadowAllocator alloc(shadow512, partition);

    Addr total = 0;
    for (unsigned c = minShadowSizeClass; c <= maxShadowSizeClass;
         ++c) {
        const Addr extent = partition[c] * pageSizeForClass(c);
        total += extent;
        std::printf("%-12s %8llu %14lluMB\n", sizeName(c),
                    static_cast<unsigned long long>(partition[c]),
                    static_cast<unsigned long long>(extent / MB));
        // The allocator must expose exactly the printed counts.
        if (alloc.available(c) != partition[c]) {
            std::printf("  MISMATCH: allocator has %llu\n",
                        static_cast<unsigned long long>(
                            alloc.available(c)));
            return 1;
        }
    }
    std::printf("%-12s %8s %14lluMB\n", "total", "",
                static_cast<unsigned long long>(total / MB));

    std::printf("\n=== ablation: bucket (paper) vs buddy (§2.4 "
                "future work) under a maximal-superpage request "
                "mix\n\n");
    std::printf("%-8s %20s %20s\n", "seed", "bucket delivered",
                "buddy delivered");
    double bucket_sum = 0, buddy_sum = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        BucketShadowAllocator bucket(shadow512, partition);
        BuddyShadowAllocator buddy(shadow512);
        const Addr b1 = deliveredUntilFailure(bucket, seed);
        const Addr b2 = deliveredUntilFailure(buddy, seed);
        bucket_sum += static_cast<double>(b1);
        buddy_sum += static_cast<double>(b2);
        std::printf("%-8llu %18lluMB %18lluMB\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(b1 / MB),
                    static_cast<unsigned long long>(b2 / MB));
    }
    std::printf("\nbuddy delivers %.1f%% of the region before first "
                "failure vs %.1f%% for buckets\n",
                100.0 * buddy_sum / 5 / (512 * MB),
                100.0 * bucket_sum / 5 / (512 * MB));
    std::printf("(the buddy allocator cannot strand capacity in a "
                "depleted size class)\n");
    return 0;
}
