/**
 * @file
 * MMC-resident stream buffers (§6 future work).
 *
 * The paper's closing section proposes using the Impulse MMC to host
 * Jouppi-style stream buffers [11]: small FIFOs that detect
 * sequential fill streams and prefetch ahead of them out of DRAM, so
 * that subsequent fills are served from the buffer at SRAM latency
 * instead of paying a DRAM access.
 *
 * This unit implements a bank of such buffers on the *real-address*
 * side of the MMC — downstream of the MTLB, so prefetches for
 * shadow-backed streams work on the already-translated addresses and
 * need no extra translations (one of the advantages of placing the
 * buffers in the MMC rather than the CPU).
 *
 * Model: each buffer tracks one stream (next expected line). A fill
 * that hits a buffer's head pops it and costs only the buffer-read
 * latency; the buffer then prefetches a further line (charged to
 * DRAM occupancy, not to the demand fill). A miss in all buffers
 * allocates the least-recently-used buffer when the miss looks
 * sequential (it follows a recorded previous miss), priming it with
 * the next lines.
 */

#pragma once

#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "stats/stats.hh"

namespace mtlbsim
{

/** Stream-buffer bank configuration. */
struct StreamBufferConfig
{
    bool enabled = false;
    unsigned numBuffers = 4;    ///< Jouppi's multi-way configuration
    unsigned depth = 4;         ///< lines prefetched ahead
    /** MMC cycles to deliver a line from a buffer (SRAM read). */
    Cycles bufferHitMmcCycles = 2;
};

/**
 * A bank of stream buffers.
 */
class StreamBufferBank
{
  public:
    StreamBufferBank(const StreamBufferConfig &config,
                     stats::StatGroup &parent);

    /**
     * Present a demand line fill at real address @p line_addr.
     *
     * @retval true  the line was in a buffer: charge
     *               bufferHitMmcCycles instead of a DRAM access
     * @retval false serve from DRAM; the bank may start a new stream
     */
    bool lookup(Addr line_addr);

    bool enabled() const { return config_.enabled; }

    /** Call @p fn(line) for each line the bank would like to prefetch
     *  now, in order, and forget them (the MMC drains them into
     *  DRAM-occupancy accounting). The queue keeps its capacity. */
    template <typename Fn>
    void
    drainPrefetches(Fn &&fn)
    {
        for (const Addr line : pendingPrefetches_)
            fn(line);
        pendingPrefetches_.clear();
    }

    /** The lines drainPrefetches(fn) would visit, drained. */
    std::vector<Addr> drainPrefetches();

    /** Invalidate all buffers (e.g. on remap-driven flushes the
     *  stream's addresses change from real to shadow). */
    void invalidateAll();

    const StreamBufferConfig &config() const { return config_; }

    std::uint64_t hits() const { return hits_.value(); }

  private:
    struct Buffer
    {
        bool valid = false;
        Addr nextLine = 0;      ///< head of the FIFO
        unsigned filled = 0;    ///< lines currently buffered
        std::uint64_t lastUse = 0;
    };

    StreamBufferConfig config_;
    std::vector<Buffer> buffers_;
    std::vector<Addr> pendingPrefetches_;
    Addr lastMissLine_ = ~Addr{0};
    std::uint64_t useClock_ = 0;

    stats::StatGroup statGroup_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
    stats::Scalar &allocations_;
    stats::Scalar &prefetchesIssued_;
};

} // namespace mtlbsim
