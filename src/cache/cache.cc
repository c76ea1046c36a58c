#include "cache/cache.hh"

namespace mtlbsim
{

Cache::Cache(const CacheConfig &config, MemBackend &backend,
             stats::StatGroup &parent)
    : config_(config), backend_(backend),
      numLines_(config.sizeBytes >> cacheLineShift),
      indexMask_(numLines_ - 1),
      lines_(numLines_),
      statGroup_("cache"),
      accesses_(statGroup_.addScalar("accesses", "demand accesses")),
      hits_(statGroup_.addScalar("hits", "cache hits")),
      misses_(statGroup_.addScalar("misses", "cache misses (line fills)")),
      writeBacks_(statGroup_.addScalar("write_backs",
                                       "dirty lines written back")),
      flushedLines_(statGroup_.addScalar("flushed_lines",
                                         "lines flushed by remap()")),
      fillLatency_(statGroup_.addAverage("fill_latency",
                                         "CPU cycles per cache fill "
                                         "(Fig 4B metric)"))
{
    fatalIf(!isPowerOf2(config.sizeBytes), "cache size must be power of 2");
    fatalIf(config.sizeBytes < basePageSize,
            "cache smaller than a page is not supported");
    accesses_.include(&hits_);
    accesses_.include(&misses_);
    parent.addChild(&statGroup_);
}

CacheAccessResult
Cache::access(Addr vaddr, Addr paddr, bool write, Cycles now)
{
    Line &line = lines_[indexOf(vaddr, paddr)];
    const Addr line_tag = lineBase(paddr);

    if (line.valid && line.tag == line_tag) {
        ++hits_;
        if (write)
            line.dirty = true;
        return {true, config_.hitCycles};
    }

    ++misses_;
    Cycles latency = config_.hitCycles;

    // Evict the victim first; the write-back occupies the bus but the
    // fill does not wait for the memory write to complete (the MMC
    // buffers it), so only the bus-acceptance latency is serial.
    if (line.valid) {
        if (line.dirty) {
            ++writeBacks_;
            latency += backend_.writeBack(line.tag, now + latency);
        }
        noteLineDropped(line.tag);
    }

    const Cycles fill = backend_.lineFill(line_tag, write, now + latency);
    fillLatency_.sample(fill);
    latency += fill;

    noteLineInstalled(line_tag);
    line.valid = true;
    line.dirty = write;
    line.tag = line_tag;
    return {false, latency};
}

Cycles
Cache::flushPage(Addr vaddr, Addr paddr, Cycles now)
{
    const Addr vbase = pageBase(vaddr);
    const Addr pbase = pageBase(paddr);
    Cycles cost = 0;

    const unsigned lines_per_page = basePageSize >> cacheLineShift;

    // Cold-page early-out: the per-page counters prove no line of
    // this physical page is resident, so the probe loop below cannot
    // hit. The flushing code still executes its full probe sequence
    // in *simulated* time, so the cycle charge is identical.
    if (residentInPage(pbase) == 0)
        return static_cast<Cycles>(lines_per_page) *
               config_.flushProbeCycles;

    for (unsigned i = 0; i < lines_per_page; ++i) {
        const Addr va = vbase + (static_cast<Addr>(i) << cacheLineShift);
        const Addr ptag = pbase + (static_cast<Addr>(i) << cacheLineShift);
        cost += config_.flushProbeCycles;
        Line &line = lines_[indexOf(va, ptag)];
        if (line.valid && line.tag == ptag) {
            ++flushedLines_;
            if (line.dirty) {
                ++writeBacks_;
                cost += backend_.writeBack(line.tag, now + cost);
            }
            noteLineDropped(line.tag);
            line.valid = false;
            line.dirty = false;
        }
    }
    return cost;
}

void
Cache::invalidateLine(Addr vaddr, Addr paddr)
{
    Line &line = lines_[indexOf(vaddr, paddr)];
    if (line.valid && line.tag == lineBase(paddr)) {
        noteLineDropped(line.tag);
        line.valid = false;
        line.dirty = false;
    }
}

void
Cache::invalidateAll()
{
    for (auto &line : lines_) {
        line.valid = false;
        line.dirty = false;
    }
    for (auto &counts : pageChunks_) {
        if (counts)
            counts->fill(0);
    }
}

unsigned
Cache::residentInPage(Addr paddr) const
{
    const Addr page = pageFrame(paddr);
    const Addr chunk = page >> chunkShift;
    return chunk < pageChunks_.size() && pageChunks_[chunk]
               ? (*pageChunks_[chunk])[slotInChunk(page)]
               : 0;
}

bool
Cache::probe(Addr vaddr, Addr paddr) const
{
    const Line &line = lines_[indexOf(vaddr, paddr)];
    return line.valid && line.tag == lineBase(paddr);
}

bool
Cache::probeDirty(Addr vaddr, Addr paddr) const
{
    const Line &line = lines_[indexOf(vaddr, paddr)];
    return line.valid && line.dirty && line.tag == lineBase(paddr);
}

} // namespace mtlbsim
