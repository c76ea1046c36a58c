/**
 * @file
 * SPLASH-2 radix sort (§3.1), run for real over the simulated
 * address space.
 *
 * Configuration follows the paper: default SPLASH-2 arguments except
 * the key count, which is 1,048,576. That means radix 1024 and a
 * maximum key of 524,288, giving two 10-bit digit passes. The
 * dynamically allocated space is 8,437,760 bytes and is remapped in
 * one remap() call after allocation completes and before the large
 * structures are initialised.
 *
 * The permute phase writes each key to one of 1024 digit buckets,
 * each about a page wide — the access pattern behind the paper's
 * observation that radix keeps missing even in a 256-entry TLB.
 */

#pragma once

#include <vector>

#include "workloads/workload.hh"

namespace mtlbsim
{

/** Tuning knobs for the radix workload. */
struct RadixConfig
{
    std::size_t numKeys = 1'048'576;    ///< paper's key count (§3.1)
    /** Digit width. With 512 buckets the permute phase keeps ~512
     *  write streams live, so radix improves only modestly with TLB
     *  size and still spends significant time in misses even at 256
     *  entries — the paper's radix signature (§3.4: 13.5% at 256). */
    unsigned radix = 512;
    std::uint32_t maxKey = 524'288;     ///< SPLASH-2 default
    std::uint64_t seed = 0x5eed0a5471ULL;
};

/**
 * The radix workload.
 */
class RadixWorkload : public Workload
{
  public:
    explicit RadixWorkload(const RadixConfig &config);

    std::string name() const override { return "radix"; }
    void setup(System &sys) override;
    void run(System &sys) override;

  private:
    Addr keyAddr(bool to_array, std::size_t index) const;
    Addr histAddr(unsigned digit) const;
    Addr rankAddr(unsigned digit) const;

    RadixConfig config_;
    std::vector<std::uint32_t> keysFrom_;
    std::vector<std::uint32_t> keysTo_;

    Addr base_ = 0;         ///< start of the dynamic allocation
    Addr fromAddr_ = 0;
    Addr toAddr_ = 0;
    Addr histBase_ = 0;
    Addr rankBase_ = 0;
    Addr codeBase_ = 0;
};

} // namespace mtlbsim
