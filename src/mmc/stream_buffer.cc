#include "mmc/stream_buffer.hh"

namespace mtlbsim
{

StreamBufferBank::StreamBufferBank(const StreamBufferConfig &config,
                                   stats::StatGroup &parent)
    : config_(config), buffers_(config.numBuffers),
      statGroup_("stream_buffers"),
      hits_(statGroup_.addScalar("hits", "fills served from a buffer")),
      misses_(statGroup_.addScalar("misses", "fills served from DRAM")),
      allocations_(statGroup_.addScalar("allocations",
                                        "streams allocated")),
      prefetchesIssued_(statGroup_.addScalar("prefetches_issued",
                                             "prefetch lines fetched"))
{
    fatalIf(config.numBuffers == 0 && config.enabled,
            "enabled stream-buffer bank needs buffers");
    parent.addChild(&statGroup_);
}

bool
StreamBufferBank::lookup(Addr line_addr)
{
    if (!config_.enabled)
        return false;

    const Addr line = lineBase(line_addr);
    ++useClock_;

    // Hit at the head of any buffer?
    for (auto &buffer : buffers_) {
        if (buffer.valid && buffer.filled > 0 &&
            buffer.nextLine == line) {
            ++hits_;
            buffer.lastUse = useClock_;
            buffer.nextLine += cacheLineSize;
            --buffer.filled;
            // Keep the FIFO topped up.
            if (buffer.filled < config_.depth) {
                const Addr pf =
                    buffer.nextLine +
                    Addr{buffer.filled} * cacheLineSize;
                pendingPrefetches_.push_back(pf);
                ++prefetchesIssued_;
                ++buffer.filled;
            }
            return true;
        }
    }

    ++misses_;

    // Allocate on a detected stream: this miss extends the previous
    // one sequentially.
    if (lastMissLine_ != ~Addr{0} &&
        line == lastMissLine_ + cacheLineSize) {
        // LRU victim.
        Buffer *victim = &buffers_[0];
        for (auto &buffer : buffers_) {
            if (!buffer.valid) {
                victim = &buffer;
                break;
            }
            if (buffer.lastUse < victim->lastUse)
                victim = &buffer;
        }
        ++allocations_;
        victim->valid = true;
        victim->lastUse = useClock_;
        victim->nextLine = line + cacheLineSize;
        victim->filled = config_.depth;
        for (unsigned i = 0; i < config_.depth; ++i) {
            pendingPrefetches_.push_back(
                victim->nextLine + Addr{i} * cacheLineSize);
            ++prefetchesIssued_;
        }
    }
    lastMissLine_ = line;
    return false;
}

std::vector<Addr>
StreamBufferBank::drainPrefetches()
{
    std::vector<Addr> out;
    drainPrefetches([&out](Addr line) { out.push_back(line); });
    return out;
}

void
StreamBufferBank::invalidateAll()
{
    for (auto &buffer : buffers_)
        buffer.valid = false;
    pendingPrefetches_.clear();
    lastMissLine_ = ~Addr{0};
}

} // namespace mtlbsim
