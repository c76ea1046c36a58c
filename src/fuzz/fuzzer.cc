#include "fuzz/fuzzer.hh"

#include <fstream>
#include <map>
#include <sstream>

#include "base/logging.hh"
#include "check/fault_injector.hh"
#include "check/translation_auditor.hh"
#include "fuzz/shrink.hh"

namespace mtlbsim::fuzz
{

namespace
{

std::string
hexAddr(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

SystemConfig
makeSystemConfig(const FuzzParams &p)
{
    SystemConfig cfg;
    // Multi-core fuzzing: every core is bound to process 0, so the
    // flat per-address-space oracle stays valid; the cores disagree
    // only in what their private TLBs cache.
    cfg.cores = p.cores ? p.cores : 1;
    cfg.tlbEntries = p.tlbEntries;
    cfg.mtlb.numEntries = p.mtlbEntries;
    cfg.mtlb.associativity = p.mtlbAssoc;
    cfg.installedBytes = p.installedBytes;
    cfg.cache.sizeBytes = p.cacheBytes;
    cfg.cpu.batchEnable = p.batch;
    cfg.kernel.allShadowMode = p.allShadowMode;
    cfg.kernel.onlinePromotion = p.onlinePromotion;
    // A tiny threshold so promotion actually triggers within a few
    // thousand ops on the deliberately thrashing TLB.
    cfg.kernel.promotionThresholdCycles = 2000;
    cfg.kernel.frameSeed = p.frameSeed;
    // The shadow region defaults to the paper's 512 MB; the kernel's
    // bucket allocator scales its partition to whatever it gets
    // (BucketShadowAllocator::partitionFor). The model checker
    // shrinks it so per-state audits stay cheap; fuzzing keeps the
    // default and gets pressure from the small TLB, MTLB, cache, and
    // installed memory instead.
    cfg.shadow.size = p.shadowBytes;
    return cfg;
}

} // namespace

/** Forwards kernel mapping events to the oracle, verbatim. */
class DifferentialFuzzer::ObserverAdapter : public KernelObserver
{
  public:
    explicit ObserverAdapter(OracleMemory &oracle) : oracle_(oracle) {}

    void
    onPageMapped(Addr vbase, Addr pfn) override
    {
        oracle_.onPageMapped(vbase, pfn);
    }

    void
    onPageUnmapped(Addr vbase, Addr pfn) override
    {
        oracle_.onPageUnmapped(vbase, pfn);
    }

    void
    onSuperpageCreated(Addr vbase, Addr shadow_base,
                       unsigned size_class) override
    {
        oracle_.onSuperpageCreated(vbase, shadow_base, size_class);
    }

    void
    onSuperpageDemoted(Addr vbase) override
    {
        oracle_.onSuperpageDemoted(vbase);
    }

    void
    onShadowFault(Addr vaddr) override
    {
        oracle_.onShadowFault(vaddr);
    }

  private:
    OracleMemory &oracle_;
};

DifferentialFuzzer::DifferentialFuzzer(const FuzzParams &params)
    : params_(params),
      adapter_(std::make_unique<ObserverAdapter>(oracle_)),
      sys_(std::make_unique<System>(makeSystemConfig(params)))
{
    sys_->kernel().setObserver(adapter_.get());

    AddressSpace &space = sys_->kernel().addressSpace();
    space.addRegion("data", fuzzDataBase, fuzzDataBytes,
                    PageProtection{true, true});
    space.addRegion("rodata", fuzzRoBase, fuzzRoBytes,
                    PageProtection{false, true});
    oracle_.addRegion(fuzzDataBase, fuzzDataBytes, true);
    oracle_.addRegion(fuzzRoBase, fuzzRoBytes, false);
}

DifferentialFuzzer::~DifferentialFuzzer()
{
    sys_->kernel().setObserver(nullptr);
}

RunResult
DifferentialFuzzer::run(const std::vector<FuzzOp> &ops)
{
    RunResult result;
    const unsigned every = params_.auditEvery ? params_.auditEvery : 1;

    for (unsigned i = 0; i < ops.size() && !failure_; ++i) {
        try {
            applyOp(ops[i], i);
            if (!failure_ &&
                ((i + 1) % every == 0 || i + 1 == ops.size())) {
                runPeriodicChecks(i);
            }
        } catch (const FatalError &e) {
            fail(i, "exception", e.what());
        } catch (const PanicError &e) {
            fail(i, "exception", e.what());
        }
        result.opsExecuted = i + 1;
    }

    if (failure_) {
        result.failed = true;
        result.failure = *failure_;
    }
    result.finalStats = sys_->rootStats().toJson();
    return result;
}

void
DifferentialFuzzer::fail(unsigned index, std::string detector,
                         std::string detail)
{
    if (failure_)
        return;
    failure_ = FuzzFailure{index, std::move(detector),
                           std::move(detail)};
}

void
DifferentialFuzzer::applyOp(const FuzzOp &op, unsigned index)
{
    // Round-robin the op stream over the cores (all bound to process
    // 0), so every core builds private TLB/memo state over the same
    // address space and only shootdown broadcasts keep them coherent.
    const unsigned core = index % sys_->numCores();
    Cpu &cpu = sys_->cpu(core);
    Kernel &kernel = sys_->kernel();
    AddressSpace &space = kernel.addressSpace();

    switch (op.kind) {
      case OpKind::Load:
      case OpKind::LoadRo:
        cpu.load(op.a);
        oracle_.noteAccess(op.a, false);
        checkAccess(op.a, index, core);
        break;

      case OpKind::Store:
        cpu.store(op.a);
        oracle_.noteAccess(op.a, true);
        checkAccess(op.a, index, core);
        break;

      case OpKind::Remap:
        cpu.remap(op.a, op.b);
        break;

      case OpKind::SwapPagewise:
      case OpKind::SwapWhole: {
        const ShadowSuperpage *sp = space.findSuperpage(op.a);
        // Skip when no superpage covers the address. Single-page
        // shadow mappings (recoloring, all-shadow) are also skipped:
        // they are not paging units, and leaving one swapped out
        // would trip remap()'s demotion path on the absent page.
        if (sp == nullptr || sp->sizeClass == 0)
            return;
        const Addr vbase = sp->vbase;
        const bool pagewise = op.kind == OpKind::SwapPagewise;
        // Snapshot expectations first: the per-page unmap events the
        // swap emits update the oracle as they happen.
        const unsigned expect_present =
            oracle_.expectedWholeWrites(vbase);
        const unsigned expect_written =
            pagewise ? oracle_.expectedPagewiseWrites(vbase)
                     : expect_present;
        // Direct kernel calls bypass the Cpu wrappers, so name the
        // issuing core explicitly: the shootdown broadcast must skip
        // it and hit everyone else.
        kernel.setActiveCore(core);
        const SwapOutResult r =
            pagewise ? kernel.swapOutSuperpagePagewise(vbase, cpu.now())
                     : kernel.swapOutSuperpageWhole(vbase, cpu.now());
        if (r.pagesWritten != expect_written ||
            r.pagesClean != expect_present - expect_written) {
            std::ostringstream os;
            os << (pagewise ? "pagewise" : "whole")
               << " swap of superpage at " << hexAddr(vbase)
               << ": wrote " << r.pagesWritten << " / skipped "
               << r.pagesClean << ", oracle expects "
               << expect_written << " dirty of " << expect_present
               << " present";
            fail(index, "swap-result", os.str());
        }
        break;
      }

      case OpKind::Recolor: {
        const Addr vbase = pageBase(op.a);
        if (!space.isPagePresent(vbase))
            return;
        if (const ShadowSuperpage *sp = space.findSuperpage(vbase);
            sp != nullptr && sp->sizeClass != 0) {
            return;     // fixed superpage layout; not recolorable
        }
        const unsigned colors = static_cast<unsigned>(
            params_.cacheBytes >> basePageShift);
        cpu.recolorPage(vbase, static_cast<unsigned>(op.b) % colors);
        break;
      }

      case OpKind::Inject:
        applyInject(static_cast<FaultKind>(op.a), index);
        break;
    }
}

void
DifferentialFuzzer::checkAccess(Addr vaddr, unsigned index,
                                unsigned core)
{
    if (failure_)
        return;

    if (!oracle_.present(vaddr)) {
        fail(index, "presence",
             "oracle saw no frame installed for " + hexAddr(vaddr) +
                 " after the access completed");
        return;
    }

    const Addr oracle_pfn = *oracle_.frameOf(vaddr);
    const PhysMap &pm = sys_->physmap();

    // An entry on core c must resolve — through the shadow table
    // when it names a shadow address — to the oracle's frame.
    const auto validate = [&](unsigned c, const TlbEntry &e) {
        const Addr paddr = e.translate(vaddr);
        switch (pm.classify(paddr)) {
          case AddrKind::Real:
            if ((paddr >> basePageShift) != oracle_pfn) {
                std::ostringstream os;
                os << "core " << c << " TLB maps " << hexAddr(vaddr)
                   << " to real frame " << (paddr >> basePageShift)
                   << ", oracle says " << oracle_pfn;
                fail(index, "translation", os.str());
            }
            break;

          case AddrKind::Shadow: {
            const Addr spi = pm.shadowPageIndex(paddr);
            const ShadowPte &pte =
                sys_->memsys().mmc().shadowTable().entry(spi);
            if (!pte.valid) {
                fail(index, "translation",
                     "shadow PTE " + hexAddr(spi) + " for " +
                         hexAddr(vaddr) +
                         " is invalid right after the access");
            } else if (pte.realPfn != oracle_pfn) {
                std::ostringstream os;
                os << "shadow PTE " << hexAddr(spi) << " for "
                   << hexAddr(vaddr) << " names frame " << pte.realPfn
                   << ", oracle says " << oracle_pfn;
                fail(index, "translation", os.str());
            }
            break;
          }

          default:
            fail(index, "translation",
                 "core " + std::to_string(c) + " TLB maps " +
                     hexAddr(vaddr) + " to non-memory address " +
                     hexAddr(paddr));
            break;
        }
    };

    // The entry the access just used must still be resident: nothing
    // between its insert and this probe can evict it (kernel accesses
    // bypass the TLB and the access itself touches one entry).
    const std::optional<TlbEntry> entry = sys_->tlb(core).probe(vaddr);
    if (!entry) {
        fail(index, "translation",
             "no TLB entry on core " + std::to_string(core) +
                 " covers " + hexAddr(vaddr) +
                 " immediately after the access");
        return;
    }

    const OracleRegion *region = oracle_.regionOf(vaddr);
    if (region == nullptr) {
        fail(index, "presence",
             "access at " + hexAddr(vaddr) + " outside every region");
        return;
    }
    if (entry->prot.writable != region->writable) {
        std::ostringstream os;
        os << "TLB entry for " << hexAddr(vaddr) << " is "
           << (entry->prot.writable ? "writable" : "read-only")
           << " but the region is "
           << (region->writable ? "writable" : "read-only");
        fail(index, "protection", os.str());
        return;
    }

    validate(core, *entry);

    // Every other core that still caches a translation for this
    // address must agree with the oracle too — a missed shootdown
    // surfaces here as a stale remote entry naming the old frame.
    for (unsigned c = 0; c < sys_->numCores() && !failure_; ++c) {
        if (c == core)
            continue;
        if (const std::optional<TlbEntry> remote =
                sys_->tlb(c).probe(vaddr)) {
            validate(c, *remote);
        }
    }
}

void
DifferentialFuzzer::runPeriodicChecks(unsigned index)
{
    if (failure_)
        return;

    // 1. The event stream itself must have been self-consistent.
    if (!oracle_.eventErrors().empty()) {
        std::ostringstream os;
        os << oracle_.eventErrors().front();
        if (oracle_.eventErrors().size() > 1) {
            os << " (+" << oracle_.eventErrors().size() - 1
               << " more)";
        }
        fail(index, "oracle-events", os.str());
        return;
    }

    // 2. Superpage records must agree exactly.
    const auto &recorded =
        sys_->kernel().addressSpace().superpages();
    const auto &expected = oracle_.superpages();
    if (recorded.size() != expected.size()) {
        std::ostringstream os;
        os << "kernel records " << recorded.size()
           << " superpages, oracle " << expected.size();
        fail(index, "superpage-records", os.str());
        return;
    }
    auto ei = expected.begin();
    for (auto ri = recorded.begin(); ri != recorded.end();
         ++ri, ++ei) {
        if (ri->second.vbase != ei->second.vbase ||
            ri->second.shadowBase != ei->second.shadowBase ||
            ri->second.sizeClass != ei->second.sizeClass) {
            std::ostringstream os;
            os << "superpage record mismatch: kernel has "
               << hexAddr(ri->second.vbase) << "->"
               << hexAddr(ri->second.shadowBase) << " class "
               << ri->second.sizeClass << ", oracle expects "
               << hexAddr(ei->second.vbase) << "->"
               << hexAddr(ei->second.shadowBase) << " class "
               << ei->second.sizeClass;
            fail(index, "superpage-records", os.str());
            return;
        }
    }

    // 3. R/D soundness: hardware bits (table entries joined with the
    // MTLB's deferred copies) may never claim an access the program
    // did not make. Only valid PTEs are swept — invalidate()
    // deliberately preserves R/M bits on swapped-out pages for OS
    // inspection, and those stale bits are not claims.
    const PhysMap &pm = sys_->physmap();
    Mmc &mmc = sys_->memsys().mmc();
    std::map<Addr, std::pair<bool, bool>> pending;
    for (const Mtlb::AuditEntry &e : mmc.mtlb().auditState()) {
        if (e.pte.valid) {
            pending[e.spi] = {e.pte.referenced != 0,
                              e.pte.modified != 0};
        }
    }
    for (const auto &[vbase, sp] : oracle_.superpages()) {
        const Addr spi0 = pm.shadowPageIndex(sp.shadowBase);
        const Addr n = sp.size() >> basePageShift;
        for (Addr i = 0; i < n; ++i) {
            const Addr va = sp.vbase + (i << basePageShift);
            const ShadowPte &pte = mmc.shadowTable().entry(spi0 + i);
            if (!pte.valid)
                continue;
            bool hw_ref = pte.referenced != 0;
            bool hw_mod = pte.modified != 0;
            if (auto it = pending.find(spi0 + i);
                it != pending.end()) {
                hw_ref = hw_ref || it->second.first;
                hw_mod = hw_mod || it->second.second;
            }
            if ((hw_ref && !oracle_.referenced(va)) ||
                (hw_mod && !oracle_.dirty(va))) {
                std::ostringstream os;
                os << "page " << hexAddr(va) << " (spi "
                   << spi0 + i << ") claims"
                   << (hw_ref && !oracle_.referenced(va)
                           ? " referenced"
                           : "")
                   << (hw_mod && !oracle_.dirty(va) ? " modified"
                                                    : "")
                   << " but the program never did that";
                fail(index, "rd-soundness", os.str());
                return;
            }
        }
    }

    // 4. Every invariant the auditor knows about.
    const AuditReport report = sys_->auditor().collect();
    if (!report.clean()) {
        const AuditViolation &v = report.violations.front();
        std::ostringstream os;
        os << v.detail;
        if (report.violations.size() > 1)
            os << " (+" << report.violations.size() - 1 << " more)";
        fail(index, "audit:" + v.invariant, os.str());
    }
}

void
DifferentialFuzzer::applyInject(FaultKind kind, unsigned index)
{
    (void)index;
    System &sys = *sys_;
    AddressSpace &space = sys.kernel().addressSpace();
    const PhysMap &pm = sys.physmap();

    // Shadow page index backing the base page at va, when one exists.
    const auto spi_of = [&](Addr va) -> std::optional<Addr> {
        const ShadowSuperpage *sp = space.findSuperpage(va);
        if (sp == nullptr)
            return std::nullopt;
        return pm.shadowPageIndex(sp->shadowBase) +
               ((pageBase(va) - sp->vbase) >> basePageShift);
    };

    // Each injection has a guard consulting only deterministic
    // simulated state, so an Inject op whose setup was shrunk away
    // degrades to a no-op instead of a crash.
    switch (kind) {
      case FaultKind::DoubleMapFrame: {
        const Addr src = fuzzDataBase;
        const Addr dst = fuzzDataBase + 0x80000;
        if (!space.isPagePresent(src) || space.isPagePresent(dst))
            return;
        FaultInjector::doubleMapFrame(sys, src, dst);
        break;
      }

      case FaultKind::StaleMtlbEntry: {
        const auto spi = spi_of(fuzzDataBase);
        if (!spi || !space.isPagePresent(fuzzDataBase))
            return;
        FaultInjector::staleMtlbEntry(sys, *spi,
                                      space.frameOf(fuzzDataBase) + 1);
        break;
      }

      case FaultKind::DesyncDirtyBit: {
        const Addr va = fuzzDataBase + basePageSize;
        const auto spi = spi_of(va);
        if (!spi || !space.isPagePresent(va) || oracle_.dirty(va))
            return;
        FaultInjector::desyncDirtyBit(sys, *spi);
        break;
      }

      case FaultKind::LeakShadowMapping: {
        const Addr spi = pm.numShadowPages() - 1;
        if (sys.memsys().mmc().shadowTable().entry(spi).valid)
            return;
        FaultInjector::leakShadowMapping(sys, spi,
                                         KernelLayout::firstUserPfn);
        break;
      }

      case FaultKind::LeakFrame:
        FaultInjector::leakFrame(sys);
        break;

      case FaultKind::StaleTlbEntry: {
        const Addr va = fuzzDataBase + 0x90000;
        if (space.isPagePresent(va) ||
            space.findSuperpage(va) != nullptr) {
            return;
        }
        FaultInjector::staleTlbEntry(sys, va,
                                     KernelLayout::framePoolBase);
        break;
      }

      case FaultKind::StaleMemoEntry: {
        const Addr va = fuzzDataBase + 2 * basePageSize;
        if (!sys.tlb().memo().live(va, sys.tlb().translationEpoch()))
            return;
        FaultInjector::staleMemoEntry(sys, va);
        break;
      }

      case FaultKind::ShadowEscape:
        FaultInjector::leakShadowAddressToDram(sys);
        break;

      case FaultKind::RebindFrame:
        if (!space.isPagePresent(fuzzDataBase))
            return;
        FaultInjector::rebindFrame(sys, fuzzDataBase);
        break;

      case FaultKind::DropHptEntry: {
        const Addr va = fuzzDataBase + 0x80000;
        if (!space.isPagePresent(va) ||
            space.findSuperpage(va) != nullptr) {
            return;
        }
        FaultInjector::dropHptEntry(sys, va);
        break;
      }

      case FaultKind::ClearDirtyBit: {
        const auto spi = spi_of(fuzzDataBase);
        if (!spi || !space.isPagePresent(fuzzDataBase) ||
            !oracle_.dirty(fuzzDataBase)) {
            return;
        }
        FaultInjector::clearDirtyBit(sys, *spi);
        break;
      }

      case FaultKind::SkipShootdown:
        // Only meaningful with a remote core to leave stale.
        if (sys.numCores() < 2)
            return;
        sys.kernel().suppressNextShootdown();
        break;
    }
}

RunResult
runSchedule(const Schedule &schedule)
{
    DifferentialFuzzer fuzzer(schedule.params);
    return fuzzer.run(schedule.ops);
}

FuzzParams
selfTestParams(unsigned num_ops)
{
    FuzzParams p;
    p.seed = 0;
    p.numOps = num_ops;
    // Check after every op so the failing op is pinpointed.
    p.auditEvery = 1;
    // Fixed machine shape: the page memo on (the StaleMemoEntry case
    // needs it), no all-shadow single-page noise, no online promotion.
    p.batch = true;
    p.allShadowMode = false;
    p.onlinePromotion = false;
    return p;
}

Schedule
selfTestSchedule(FaultKind kind)
{
    std::vector<FuzzOp> ops;

    if (kind == FaultKind::SkipShootdown) {
        // Two cores; ops alternate core 0 / core 1 (index % cores).
        // Core 0 caches a base-page translation, then core 1 recolors
        // the page — which moves it behind a shadow mapping — with
        // the shootdown broadcast suppressed. Core 0's entry is now
        // stale, and the per-op audit must name cross-core-coherence.
        const Addr va = fuzzDataBase + 0x80000;
        ops.push_back({OpKind::Load, va, 0});       // core 0
        ops.push_back({OpKind::Load, va, 0});       // core 1
        ops.push_back({OpKind::Inject,
                       static_cast<std::uint64_t>(kind), 0});
        ops.push_back({OpKind::Recolor, va, 1});    // core 1
        Schedule schedule;
        schedule.params =
            selfTestParams(static_cast<unsigned>(ops.size()));
        schedule.params.cores = 2;
        schedule.ops = std::move(ops);
        return schedule;
    }

    // Common prologue: one 64 KB shadow superpage with a dirty first
    // page and a clean-but-referenced second page.
    ops.push_back({OpKind::Remap, fuzzDataBase, Addr{64} * 1024});
    ops.push_back({OpKind::Store, fuzzDataBase, 0});
    ops.push_back({OpKind::Load, fuzzDataBase + basePageSize, 0});

    switch (kind) {
      case FaultKind::StaleMemoEntry:
        // Give the memo a live entry to corrupt.
        ops.push_back(
            {OpKind::Load, fuzzDataBase + 2 * basePageSize, 0});
        break;
      case FaultKind::DropHptEntry:
        // Materialise a base-paged page outside the superpage.
        ops.push_back({OpKind::Load, fuzzDataBase + 0x80000, 0});
        break;
      case FaultKind::ClearDirtyBit:
        // Conflict-evict the dirty line (same index one cache size
        // up in the direct-mapped VIPT cache) so its write-back
        // carries the modification into the MTLB *before* the
        // injection purges and clears it. Without this the line
        // would re-dirty the page during the swap's own flush.
        ops.push_back({OpKind::Load, fuzzDataBase + 16384, 0});
        break;
      default:
        break;
    }

    ops.push_back({OpKind::Inject,
                   static_cast<std::uint64_t>(kind), 0});

    if (kind == FaultKind::ClearDirtyBit) {
        // The lost dirty bit only matters when the page is paged
        // out: the swap misclassifies it as clean.
        ops.push_back({OpKind::SwapPagewise, fuzzDataBase, 0});
    }

    Schedule schedule;
    schedule.params =
        selfTestParams(static_cast<unsigned>(ops.size()));
    schedule.ops = std::move(ops);
    return schedule;
}

std::vector<SelfTestOutcome>
runSelfTest(bool shrink)
{
    std::vector<SelfTestOutcome> outcomes;
    for (unsigned k = 0; k < numFaultKinds; ++k) {
        const FaultKind kind = static_cast<FaultKind>(k);
        const Schedule schedule = selfTestSchedule(kind);

        SelfTestOutcome out;
        out.kind = kind;
        const RunResult result = runSchedule(schedule);
        out.detected = result.failed;
        if (result.failed)
            out.failure = result.failure;

        if (shrink && result.failed) {
            const ShrinkResult sr =
                shrinkSchedule(schedule.params, schedule.ops,
                               result.failure.detector, 200);
            out.shrunkOps = static_cast<unsigned>(sr.ops.size());
            out.shrunkStillFails = sr.stillFails;
        }
        outcomes.push_back(out);
    }
    return outcomes;
}

json::Value
traceToJson(const Schedule &schedule, const RunResult &result)
{
    json::Value v = json::Value::object();
    v.set("format", json::Value(fztraceFormat));
    v.set("version", json::Value(fztraceVersion));
    v.set("params", paramsToJson(schedule.params));
    v.set("ops", opsToJson(schedule.ops));
    if (result.failed) {
        json::Value f = json::Value::object();
        f.set("op", json::Value(result.failure.opIndex));
        f.set("detector", json::Value(result.failure.detector));
        f.set("detail", json::Value(result.failure.detail));
        v.set("failure", std::move(f));
    }
    v.set("final_stats", result.finalStats);
    return v;
}

FuzzTrace
traceFromJson(const json::Value &v)
{
    const json::Value *format = v.find("format");
    fatalIf(format == nullptr || !format->isString() ||
                format->asString() != fztraceFormat,
            "not an ", fztraceFormat, " file");
    const json::Value *version = v.find("version");
    fatalIf(version == nullptr ||
                traceInteger(*version, "version") != fztraceVersion,
            "unsupported fztrace version");

    FuzzTrace trace;
    const json::Value *params = v.find("params");
    fatalIf(params == nullptr, "fztrace: missing params");
    trace.schedule.params = paramsFromJson(*params);
    const json::Value *ops = v.find("ops");
    fatalIf(ops == nullptr, "fztrace: missing ops");
    trace.schedule.ops = opsFromJson(*ops);

    if (const json::Value *f = v.find("failure")) {
        const json::Value *op = f->find("op");
        const json::Value *detector = f->find("detector");
        const json::Value *detail = f->find("detail");
        fatalIf(op == nullptr || detector == nullptr ||
                    detail == nullptr,
                "fztrace: malformed failure record");
        trace.hasFailure = true;
        trace.failure.opIndex = static_cast<unsigned>(
            traceInteger(*op, "failure.op", ~0u));
        trace.failure.detector = detector->asString();
        trace.failure.detail = detail->asString();
    }
    if (const json::Value *s = v.find("final_stats"))
        trace.finalStats = *s;
    return trace;
}

void
writeTrace(const std::string &path, const Schedule &schedule,
           const RunResult &result)
{
    std::ofstream out(path);
    fatalIf(!out, "cannot write trace file ", path);
    traceToJson(schedule, result).dump(out, 2);
    out << "\n";
    fatalIf(!out.good(), "error writing trace file ", path);
}

FuzzTrace
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot read trace file ", path);
    return traceFromJson(json::Value::parse(in));
}

} // namespace mtlbsim::fuzz
