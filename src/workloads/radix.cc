#include "workloads/radix.hh"

#include "base/intmath.hh"
#include "base/random.hh"

namespace mtlbsim
{

namespace
{
/** Offset of the dynamic allocation inside the data region: 16 KB
 *  aligned but deliberately not 64 KB aligned, reproducing the
 *  arbitrary alignment of a real heap allocation (the paper's 14
 *  superpages for radix come from exactly this effect). */
constexpr Addr allocOffset = 0x4000;
}

RadixWorkload::RadixWorkload(const RadixConfig &config) : config_(config)
{
    fatalIf(config.numKeys == 0, "radix needs keys");
    fatalIf(!isPowerOf2(config.radix), "radix must be a power of 2");
}

Addr
RadixWorkload::keyAddr(bool to_array, std::size_t index) const
{
    const Addr array = to_array ? toAddr_ : fromAddr_;
    return array + Addr{index} * 4;
}

Addr
RadixWorkload::histAddr(unsigned digit) const
{
    return histBase_ + Addr{digit} * 4;
}

Addr
RadixWorkload::rankAddr(unsigned digit) const
{
    return rankBase_ + Addr{digit} * 4;
}

void
RadixWorkload::setup(System &sys)
{
    Cpu &cpu = sys.cpu();
    AddressSpace &space = sys.kernel().addressSpace();

    // Text segment: radix is a small program; one hot code page.
    codeBase_ = UserLayout::textBase;
    space.addRegion("text", codeBase_, 16 * basePageSize,
                    PageProtection{false, true});

    // The dynamic allocation: from/to key arrays, histogram, rank
    // array, and the program's other globals, padded to the paper's
    // 8,437,760 bytes.
    const Addr key_bytes = Addr{config_.numKeys} * 4;
    base_ = UserLayout::dataBase + allocOffset;
    fromAddr_ = base_;
    toAddr_ = fromAddr_ + key_bytes;
    histBase_ = toAddr_ + key_bytes;
    rankBase_ = histBase_ + Addr{config_.radix} * 4;

    Addr total = 2 * key_bytes + 2 * Addr{config_.radix} * 4;
    // The paper's run maps 8,437,760 bytes; pad the region up to it
    // (shared code/library structures in the allocation) when the
    // configured sizes leave room.
    if (config_.numKeys == 1'048'576 && total < 8'437'760)
        total = 8'437'760;

    space.addRegion("radix_data", pageBase(base_),
                    roundUp(total + allocOffset, basePageSize),
                    PageProtection{});

    // Stack (touched implicitly by loop spill code; kept small).
    space.addRegion("stack", UserLayout::stackBase,
                    UserLayout::stackBytes, PageProtection{});

    // Program startup: ~1M instructions of loader/init.
    cpu.executeAt(100'000, codeBase_);

    // §3.1: map the entire dynamically allocated space after the
    // allocations are complete and before the larger structures are
    // initialised.
    cpu.remap(base_, total);

    // Generate and store the keys (the big initialisation).
    Random rng(config_.seed);
    keysFrom_.resize(config_.numKeys);
    keysTo_.assign(config_.numKeys, 0);
    for (std::size_t i = 0; i < config_.numKeys; ++i) {
        keysFrom_[i] =
            static_cast<std::uint32_t>(rng.below(config_.maxKey));
        cpu.executeAt(3, codeBase_);            // rng + loop overhead
        cpu.store(keyAddr(false, i));
    }
}

void
RadixWorkload::run(System &sys)
{
    Cpu &cpu = sys.cpu();

    const unsigned digit_bits = floorLog2(config_.radix);
    const unsigned num_passes =
        divCeil(ceilLog2(config_.maxKey), digit_bits);

    std::vector<std::uint32_t> hist(config_.radix);
    std::vector<std::uint32_t> rank(config_.radix);

    bool from_is_a = true;
    for (unsigned pass = 0; pass < num_passes; ++pass) {
        auto &from = from_is_a ? keysFrom_ : keysTo_;
        auto &to = from_is_a ? keysTo_ : keysFrom_;
        const unsigned shift = pass * digit_bits;

        // Phase 1: histogram the current digit.
        std::fill(hist.begin(), hist.end(), 0);
        for (unsigned d = 0; d < config_.radix; ++d) {
            cpu.executeAt(1, codeBase_);
            cpu.store(histAddr(d));
        }
        for (std::size_t i = 0; i < config_.numKeys; ++i) {
            // Loop control, digit extraction, and address generation
            // (the SPLASH-2 inner loop is ~8 instructions beyond its
            // memory operations).
            cpu.executeAt(7, codeBase_);
            cpu.load(keyAddr(!from_is_a, i));
            const unsigned d = (from[i] >> shift) & (config_.radix - 1);
            ++hist[d];
            cpu.load(histAddr(d));
            cpu.store(histAddr(d));
        }

        // Phase 2: prefix-sum the histogram into ranks.
        std::uint32_t running = 0;
        for (unsigned d = 0; d < config_.radix; ++d) {
            cpu.executeAt(3, codeBase_);
            cpu.load(histAddr(d));
            rank[d] = running;
            running += hist[d];
            cpu.store(rankAddr(d));
        }

        // Phase 3: permute into the destination array. Each key
        // lands in its digit's bucket — 1024 concurrent write
        // streams, about a page each.
        for (std::size_t i = 0; i < config_.numKeys; ++i) {
            cpu.executeAt(9, codeBase_);
            cpu.load(keyAddr(!from_is_a, i));
            const std::uint32_t key = from[i];
            const unsigned d = (key >> shift) & (config_.radix - 1);
            cpu.load(rankAddr(d));
            const std::uint32_t slot = rank[d]++;
            cpu.store(rankAddr(d));
            to[slot] = key;
            cpu.store(keyAddr(from_is_a, slot));
        }

        from_is_a = !from_is_a;
    }

    // Verify the sort really happened (execution-driven honesty).
    const auto &result = from_is_a ? keysFrom_ : keysTo_;
    for (std::size_t i = 1; i < result.size(); ++i) {
        panicIf(result[i - 1] > result[i],
                "radix sort produced unsorted output at ", i);
    }
}

} // namespace mtlbsim
