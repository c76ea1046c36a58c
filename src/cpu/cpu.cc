#include "cpu/cpu.hh"

namespace mtlbsim
{

namespace
{

const char *
opName(CpuOpRecord::Kind kind)
{
    switch (kind) {
      case CpuOpRecord::Kind::Load: return "load";
      case CpuOpRecord::Kind::Store: return "store";
      case CpuOpRecord::Kind::Execute: return "execute";
      case CpuOpRecord::Kind::ExecuteAt: return "executeAt";
      case CpuOpRecord::Kind::Remap: return "remap";
      case CpuOpRecord::Kind::Sbrk: return "sbrk";
      case CpuOpRecord::Kind::SetSbrkPrealloc: return "setSbrkPrealloc";
      case CpuOpRecord::Kind::Recolor: return "recolorPage";
    }
    return "op";
}

} // namespace

Cpu::Cpu(const CpuConfig &config, Tlb &tlb, MicroItlb &uitlb,
         Cache &cache, MemorySystem &memsys, Kernel &kernel,
         stats::StatGroup &parent,
         const stats::DeferredSource &deferred, unsigned core_id)
    : config_(config), tlb_(tlb), uitlb_(uitlb), cache_(cache),
      memsys_(memsys), kernel_(kernel),
      cacheHitCycles_(cache.config().hitCycles),
      coreId_(core_id),
      statGroup_("cpu"),
      instructions_(statGroup_.addScalar("instructions",
                                         "instructions retired")),
      loads_(statGroup_.addScalar("loads", "data loads issued")),
      stores_(statGroup_.addScalar("stores", "data stores issued")),
      ifetchChecks_(statGroup_.addScalar("ifetch_checks",
                                         "instruction-fetch translation "
                                         "checks")),
      stallCycles_(statGroup_.addScalar("stall_cycles",
                                        "cycles stalled on memory")),
      hiddenCycles_(statGroup_.addScalar("hidden_cycles",
                                         "miss cycles hidden by "
                                         "stall-on-use overlap"))
{
    parent.addChild(&statGroup_);
    // Every counter the batch engine defers: reading any of them
    // realizes every core's pending counts first.
    for (stats::Scalar *deferred_stat :
         {&instructions_, &loads_, &stores_, &ifetchChecks_})
        deferred_stat->deferTo(deferred);
    tlb_.deferHitsTo(deferred);
    uitlb_.deferHitsTo(deferred);
    cache_.deferHitsTo(deferred);
}

void
Cpu::record(CpuOpRecord::Kind kind, Addr a, std::uint64_t n)
{
    constexpr std::uint64_t limit = std::uint64_t{1} << 32;
    fatalIf(a >= limit || n >= limit, "cannot record ", opName(kind),
            ": operand 0x", std::hex, a >= limit ? a : n,
            " does not fit in 32 bits");
    sink_->push({kind, static_cast<std::uint32_t>(a),
                 static_cast<std::uint32_t>(n)});
}

Cpu::Translation
Cpu::translate(Addr vaddr, AccessType type)
{
    // Memo hit: a live entry is a translation the full lookup below
    // produced since the last mutation of translation state, so
    // returning it is exact memoization. Every entry came from a
    // user-mode lookup, so only a store to a read-only page can
    // fault; it falls through so the slow path counts and reports it.
    PageMemo &memo = tlb_.memo();
    const PageMemo::Entry *hit =
        memo.live(vaddr, tlb_.translationEpoch());
    if (hit && (type != AccessType::Write || hit->writable)) {
        tlb_.noteMemoHit();
        return {hit->pframeBase | pageOffset(vaddr), hit->tlbSlot};
    }

    TlbLookupResult result = tlb_.lookup(vaddr, type, AccessMode::User);
    if (!result.hit) {
        // Trap to the software miss handler (§3.2). Its cycles are
        // the Figure 3 "TLB miss time". The retried access hits the
        // entry the handler filled, and counts as that hit.
        const TlbMissResult trap = kernel_.handleTlbMiss(vaddr, type, now_);
        now_ += trap.cycles;
        result = tlb_.lookupSlot(trap.slot, vaddr, type, AccessMode::User);
    }
    fatalIf(result.protFault,
            "protection fault at 0x", std::hex, vaddr);
    // Filled only when the fast path is on: an empty memo never
    // matches, so one switch disables the whole fast path.
    if (config_.batchEnable) {
        const Addr vpage = vaddr >> basePageShift;
        memo.slot(vpage) = {vpage, pageBase(result.paddr),
                            tlb_.translationEpoch(), result.writable,
                            result.slot};
    }
    return {result.paddr, result.slot};
}

void
Cpu::executeAtSlow(Counter n, Addr code_vaddr)
{
    noteCoreActive();
    maybeRunCheck();
    ++ifetchChecks_;
    if (!uitlb_.hit(code_vaddr)) {
        // The unified TLB provides the translation (it may trap);
        // the micro-ITLB caches its entry for subsequent sequential
        // fetches.
        uitlb_.fill(tlb_.entryAt(translate(code_vaddr,
                                           AccessType::IFetch).slot));
    }
    // Retire directly: executeAt() has already passed the record
    // sink check that execute() would repeat.
    instructions_ += static_cast<double>(n);
    now_ += n;
}

void
Cpu::dataAccess(Addr vaddr, AccessType type)
{
    // Deferred counts may stay pending across this access: bulk adds
    // and the direct increments below are exact integer sums, so
    // their interleaving is irrelevant to every final value, and
    // every read of a deferred counter realizes them first.
    noteCoreActive();
    maybeRunCheck();
    const bool is_store = type == AccessType::Write;
    if (is_store)
        ++stores_;
    else
        ++loads_;

    const Addr paddr = translate(vaddr, type).paddr;

    CacheAccessResult r = cache_.access(vaddr, paddr, is_store, now_);

    if (memsys_.faulted()) {
        // The MMC raised a precise fault: the base page backing this
        // shadow address is swapped out (§4). The bogus line must
        // not remain cached; the kernel reloads the page and the
        // access retries.
        cache_.invalidateLine(vaddr, paddr);
        now_ += r.latency;
        now_ += kernel_.handleShadowPageFault(vaddr, now_);
        r = cache_.access(vaddr, paddr, is_store, now_);
        panicIf(memsys_.faulted(), "shadow fault persists after reload");
    }

    if (r.hit) {
        now_ += r.latency;
        return;
    }

    // Miss timing: apply the stall-on-use / store-buffer overlap
    // approximations.
    if (is_store && config_.storeBuffer) {
        // The store retires into the buffer; the CPU only waits if
        // the buffer is still draining a previous miss.
        if (now_ < storeBufferBusyUntil_) {
            const Cycles wait = storeBufferBusyUntil_ - now_;
            stallCycles_ += static_cast<double>(wait);
            now_ += wait;
        }
        hiddenCycles_ += static_cast<double>(r.latency - 1);
        storeBufferBusyUntil_ = now_ + r.latency;
        now_ += 1;
        return;
    }

    Cycles charged = r.latency;
    if (config_.loadUseOverlap > 0) {
        const Cycles hidden =
            charged - 1 < config_.loadUseOverlap ? charged - 1
                                                 : config_.loadUseOverlap;
        hiddenCycles_ += static_cast<double>(hidden);
        charged -= hidden;
    }
    stallCycles_ += static_cast<double>(charged > 1 ? charged - 1 : 0);
    now_ += charged;
}

} // namespace mtlbsim
