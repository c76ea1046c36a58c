/**
 * @file
 * Single-issue CPU timing model.
 *
 * Models the paper's simulated processor (§3.2): a single-issue
 * 240 MHz CPU with a perfect instruction cache, a unified I/D TLB,
 * a single-entry micro-ITLB, a non-blocking data cache, and
 * stall-on-use semantics.
 *
 * Workloads drive the CPU execution-style: execute(n) retires n
 * non-memory instructions (one per cycle), load()/store() perform
 * data references. Stall-on-use is approximated: a load's miss
 * latency can be overlapped with up to its use-distance's worth of
 * subsequent instructions; stores retire through a store buffer and
 * stall only when a second miss arrives while the buffer is busy.
 * With useDistance 0 and the store buffer disabled the model
 * degenerates to fully blocking.
 *
 * TLB misses trap to the kernel's software handler (§3.2), whose
 * cycles are tracked separately so the runtime/miss-time split of
 * Figure 3 can be reported.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/cache.hh"
#include "mmc/memsys.hh"
#include "os/kernel.hh"
#include "stats/stats.hh"
#include "tlb/tlb.hh"

namespace mtlbsim
{

/** CPU timing-model configuration. */
struct CpuConfig
{
    /** Instructions between a load and the first use of its value;
     *  miss latency up to this many cycles is hidden (stall-on-use
     *  approximation). 0 = blocking loads. */
    Cycles loadUseOverlap = 0;
    /** Allow one outstanding store miss to drain in the background
     *  (non-blocking write-allocate with a 1-deep store buffer). */
    bool storeBuffer = true;
    /** The host fast path: serve TLB hits from the TLB's page memo
     *  (tlb/tlb.hh PageMemo) and replay runs of same-page cache hits
     *  in bulk (docs/manual.md §9). A host-speed switch only:
     *  simulated behaviour and statistics are byte-identical with it
     *  on or off, and off is the plain path they are proven against. */
    bool batchEnable = true;
};

/**
 * One operation a workload asked of the CPU, as appended to a record
 * sink (Cpu::setRecorder). The multiprogramming runner streams each
 * process's ops through a sink and replays them under a scheduler
 * (src/workloads/multiprog.*). The simulated address space is
 * 32-bit, so every operand fits in 32 bits and a record takes 12
 * bytes; recording a wider operand is a FatalError.
 */
struct CpuOpRecord
{
    enum class Kind : std::uint8_t
    {
        Load,
        Store,
        Execute,
        ExecuteAt,
        Remap,
        Sbrk,
        SetSbrkPrealloc,
        Recolor,
    };

    Kind kind = Kind::Execute;
    std::uint32_t a = 0;    ///< address operand (when the op has one)
    std::uint32_t n = 0;    ///< count/bytes/color operand
};

/**
 * A record sink: a bounded buffer of ops that a CPU appends to
 * instead of simulating them. When an append fills it, the ring is
 * handed off (full()), and it is empty again when that returns, so
 * its memory never grows with the length of the program.
 */
class OpRing
{
  public:
    explicit OpRing(std::size_t capacity)
        : ops_(capacity), next_(ops_.data()),
          limit_(ops_.data() + capacity)
    {
    }
    virtual ~OpRing() = default;
    OpRing(const OpRing &) = delete;
    OpRing &operator=(const OpRing &) = delete;

    /** Append @p op, and hand the ring off if that fills it. */
    void
    push(const CpuOpRecord &op)
    {
        *next_++ = op;
        if (next_ == limit_) [[unlikely]]
            full();
    }

    /** The ops appended since the last clear(), oldest first. */
    const CpuOpRecord *data() const { return ops_.data(); }
    std::size_t size() const { return next_ - ops_.data(); }

    void clear() { next_ = ops_.data(); }

  protected:
    /** The ring is full: pass its ops on; return with it cleared. */
    virtual void full() = 0;

  private:
    std::vector<CpuOpRecord> ops_;
    CpuOpRecord *next_;
    CpuOpRecord *limit_;
};

/**
 * The CPU.
 */
class Cpu
{
  public:
    /**
     * @param core_id this core's index in the shared kernel's core
     *        table; the CPU names itself (Kernel::setActiveCore)
     *        before every kernel entry
     */
    Cpu(const CpuConfig &config, Tlb &tlb, MicroItlb &uitlb,
        Cache &cache, MemorySystem &memsys, Kernel &kernel,
        stats::StatGroup &parent, unsigned core_id = 0);

    /** Retire @p n non-memory instructions (1 cycle each). */
    void
    execute(Counter n)
    {
        if (sink_)
            return record(CpuOpRecord::Kind::Execute, 0, n);
        instructions_ += n;
        now_ += n;
    }

    /**
     * Retire @p n instructions fetched from the code page at
     * @p code_vaddr, modelling unified-TLB pressure from the
     * instruction stream: the fetch consults the micro-ITLB and, on
     * a micro-ITLB miss, the unified TLB (trapping on a miss there).
     *
     * The batch engine fast-paths the overwhelmingly common case —
     * micro-ITLB hit, no periodic check due — exactly as it does
     * data accesses: time advances, and the hit and its instructions
     * land in two host counters that the micro-ITLB hit count (and
     * so the fetch checks) and the instruction count include.
     */
    void
    executeAt(Counter n, Addr code_vaddr)
    {
        if (sink_)
            return record(CpuOpRecord::Kind::ExecuteAt, code_vaddr, n);
        if (config_.batchEnable && uitlb_.covers(code_vaddr) &&
            !(checkInterval_ != 0 && now_ >= nextCheckAt_)) {
            ++batch_.fetches;
            batch_.instructions += n;
            now_ += n;
            return;
        }
        executeAtSlow(n, code_vaddr);
    }

    /** Perform a data load at @p vaddr. */
    void
    load(Addr vaddr)
    {
        if (sink_)
            return record(CpuOpRecord::Kind::Load, vaddr, 0);
        if (!tryBatchedAccess(vaddr, false))
            dataAccess(vaddr, AccessType::Read);
    }

    /** Perform a data store at @p vaddr. */
    void
    store(Addr vaddr)
    {
        if (sink_)
            return record(CpuOpRecord::Kind::Store, vaddr, 0);
        if (!tryBatchedAccess(vaddr, true))
            dataAccess(vaddr, AccessType::Write);
    }

    /** @name Kernel service wrappers (advance the CPU clock) */
    /** @{ */
    void
    remap(Addr vbase, Addr bytes)
    {
        if (sink_)
            record(CpuOpRecord::Kind::Remap, vbase, bytes);
        noteCoreActive();
        now_ += kernel_.remap(vbase, bytes, now_);
    }

    Addr
    sbrk(Addr bytes)
    {
        if (sink_)
            record(CpuOpRecord::Kind::Sbrk, 0, bytes);
        noteCoreActive();
        SbrkResult r = kernel_.sbrk(bytes, now_);
        now_ += r.cycles;
        return r.oldBreak;
    }

    void
    recolorPage(Addr vaddr, unsigned color)
    {
        // Recorded only: recoloring needs the page present, and
        // record-only loads and stores never materialize it.
        if (sink_)
            return record(CpuOpRecord::Kind::Recolor, vaddr, color);
        noteCoreActive();
        now_ += kernel_.recolorPage(vaddr, color, now_);
    }

    /** Change the kernel's sbrk() preallocation chunk for this
     *  core's process. A zero-cycle libc knob, routed through the
     *  CPU so a record sink captures it. */
    void
    setSbrkPrealloc(Addr bytes)
    {
        if (sink_)
            record(CpuOpRecord::Kind::SetSbrkPrealloc, 0, bytes);
        noteCoreActive();
        kernel_.setSbrkPrealloc(bytes);
    }
    /** @} */

    /**
     * Record instead of simulate: while @p ring is set, every
     * workload-issued operation is pushed onto it. Loads, stores,
     * executes and recolors then return without touching the TLB,
     * cache, memory or clock; the other kernel services still run,
     * so sbrk() hands back the break the program would see. The
     * multiprogramming runner's generator machines run this way;
     * null (the default) costs one predictable branch per op.
     */
    void setRecorder(OpRing *ring) { sink_ = ring; }

    /**
     * Advance the clock by @p n cycles without retiring work: the
     * scheduler's context-switch cost and the kernel's shootdown-IPI
     * service time both land here.
     */
    void charge(Cycles n) { now_ += n; }

    /**
     * Arrange for @p hook to run once per @p interval simulated
     * cycles (the src/check periodic audit). The hook fires between
     * accesses, when all translation state is settled. Interval 0
     * disables.
     */
    void
    setPeriodicCheck(Cycles interval, std::function<void(Cycles)> hook)
    {
        checkInterval_ = interval;
        checkHook_ = std::move(hook);
        nextCheckAt_ = now_ + interval;
    }

    /** Current simulated time in CPU cycles. */
    Cycles now() const { return now_; }

    Counter instructions() const { return instructions_.value(); }

    std::uint64_t
    dataAccesses() const
    {
        return loads_.value() + stores_.value();
    }

  private:
    /**
     * The batch engine's host counts, kept across every memo page
     * (the counts are per-access, not per-page). They are no
     * statistic's alone: the counters that a replay stands in for
     * include them (see the constructor), so every read is exact.
     */
    struct BatchState
    {
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t fetches = 0;          ///< batched fetches
        std::uint64_t instructions = 0;     ///< their retires
    };

    /**
     * The batch engine's inline hot path. Accepts the access iff it
     * is provably equivalent to the full dataAccess() path on a
     * cache hit: a live memo entry for the page, store permission
     * already proven, no periodic check due, and the cache line
     * resident. Everything else — cold page, retired memo entry,
     * would-be protection fault, line fill, check boundary — falls
     * back to the slow path, whose translate() refills the memo.
     *
     * Replay advances simulated time and the line's dirty bit
     * (kernel paths read both without CPU involvement) and bumps one
     * host count, which the CPU's, the TLB's and the cache's counters
     * include (see DESIGN.md §7).
     */
    bool
    tryBatchedAccess(Addr vaddr, bool is_store)
    {
        // PageMemo::live() spelled out: as a pointer-or-null test it
        // measurably slows the multi-core replay loop this inlines into.
        const Addr vpage = vaddr >> basePageShift;
        const PageMemo::Entry &m = tlb_.memo().slot(vpage);
        if (m.vpage != vpage ||
            m.epoch != tlb_.translationEpoch() ||
            (is_store && !m.writable) ||
            (checkInterval_ != 0 && now_ >= nextCheckAt_)) {
            return false;
        }
        const Addr paddr = m.pframeBase | pageOffset(vaddr);
        if (!cache_.batchHit(vaddr, paddr, is_store))
            return false;
        if (is_store)
            ++batch_.stores;
        else
            ++batch_.loads;
        now_ += cacheHitCycles_;
        return true;
    }

    void dataAccess(Addr vaddr, AccessType type);

    /** Push one op onto the record sink; a FatalError naming the op
     *  when an operand does not fit in 32 bits. Out of line, so that
     *  load(), store() and the executes stay small enough to inline
     *  into a workload's loops. */
    void record(CpuOpRecord::Kind kind, Addr a, std::uint64_t n);

    /** executeAt()'s full path: periodic check, micro-ITLB, unified
     *  TLB, per-access statistics. */
    void executeAtSlow(Counter n, Addr code_vaddr);

    /** Fire the periodic check hook when its interval has elapsed.
     *  Called on access boundaries, where state is consistent. */
    void
    maybeRunCheck()
    {
        if (checkInterval_ == 0 || now_ < nextCheckAt_)
            return;
        while (nextCheckAt_ <= now_)
            nextCheckAt_ += checkInterval_;
        checkHook_(now_);
    }

    /** A translated access: its (possibly shadow) physical address
     *  and the TLB slot whose entry maps it. */
    struct Translation
    {
        Addr paddr;
        unsigned slot;
    };

    /** Translate @p vaddr through the page memo, or through the TLB —
     *  trapping to the kernel on a miss — and then fill the memo. */
    Translation translate(Addr vaddr, AccessType type);

    /** Name this core as the machine's active requester before any
     *  kernel entry or memory traffic it may generate: the shared
     *  kernel routes TLB/micro-ITLB mutations to the active core's
     *  structures, and the memory system attributes MTLB port
     *  occupancy to the requester. */
    void
    noteCoreActive()
    {
        kernel_.setActiveCore(coreId_);
        memsys_.setRequester(coreId_);
    }

    CpuConfig config_;
    Tlb &tlb_;
    MicroItlb &uitlb_;
    Cache &cache_;
    MemorySystem &memsys_;
    Kernel &kernel_;

    Cycles cacheHitCycles_;     ///< memoized cache.config().hitCycles
    BatchState batch_;

    Cycles now_ = 0;
    Cycles storeBufferBusyUntil_ = 0;

    Cycles checkInterval_ = 0;  ///< 0 = no periodic check
    Cycles nextCheckAt_ = 0;
    std::function<void(Cycles)> checkHook_;

    unsigned coreId_;
    /** Record sink (setRecorder); null in normal runs. */
    OpRing *sink_ = nullptr;

    stats::StatGroup statGroup_;
    stats::Scalar &instructions_;
    stats::Scalar &loads_;
    stats::Scalar &stores_;
    stats::Scalar &ifetchChecks_;
    stats::Scalar &stallCycles_;
    stats::Scalar &hiddenCycles_;
};

} // namespace mtlbsim
