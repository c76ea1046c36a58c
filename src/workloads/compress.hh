/**
 * @file
 * compress95: the SPEC95 LZW compressor (§3.1), run for real.
 *
 * A faithful reimplementation of `compress` 4.0's LZW algorithm
 * (double hashing into a 69,001-entry hash table, 16-bit maximum
 * codes, block-compress reset) driving the simulated machine with
 * the same table and buffer accesses the original makes.
 *
 * Working set per the paper: the hash table (4-byte entries) and
 * code table (2-byte entries) total ~440 KB and are accessed nearly
 * randomly; together with the intervening globals they form one
 * 557,056-byte remapped region (10 superpages). The original,
 * compressed, and decompressed buffers are each 999,424 bytes and
 * are remapped separately — the paper reports 13, 7, and 13
 * superpages thanks to their different alignments, which we
 * reproduce with distinct base offsets.
 *
 * The run performs 2 compress/decompress cycles of a 1,000,000-
 * character input (§3.4 notes this dampens MTLB gains versus SPEC's
 * 25 cycles).
 */

#pragma once

#include <vector>

#include "workloads/workload.hh"

namespace mtlbsim
{

/** Tuning knobs for the compress95 workload. */
struct CompressConfig
{
    std::size_t inputChars = 1'000'000; ///< §3.1
    unsigned cycles = 2;                ///< compress/decompress cycles
    std::uint64_t seed = 0xc035e55ULL;
};

/**
 * The compress95 workload.
 */
class CompressWorkload : public Workload
{
  public:
    explicit CompressWorkload(const CompressConfig &config);

    std::string name() const override { return "compress95"; }
    void setup(System &sys) override;
    void run(System &sys) override;

  private:
    static constexpr unsigned hashSize = 69001;  // compress 4.0 HSIZE
    static constexpr unsigned maxBits = 16;
    static constexpr unsigned firstCode = 257;
    static constexpr unsigned clearCode = 256;

    Addr htabAddr(unsigned i) const;
    Addr codetabAddr(unsigned i) const;
    Addr origAddr(std::size_t i) const;
    Addr compAddr(std::size_t i) const;
    Addr decompAddr(std::size_t i) const;

    /** One LZW compression pass; returns the compressed codes. */
    std::vector<std::uint16_t> compressPass(System &sys);

    /** One LZW decompression pass; checks round-trip fidelity. */
    void decompressPass(System &sys,
                        const std::vector<std::uint16_t> &codes);

    CompressConfig config_;
    std::vector<std::uint8_t> input_;

    Addr tablesBase_ = 0;   ///< htab + codetab + globals region
    Addr origBase_ = 0;
    Addr compBase_ = 0;
    Addr decompBase_ = 0;
    Addr codeBase_ = 0;
};

} // namespace mtlbsim
