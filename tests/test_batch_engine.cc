/**
 * @file
 * Tests for the batched same-page access engine (src/cpu/cpu.hh),
 * which replays runs of cache hits on the per-core page memo. The
 * memo's own fill and retirement are tested in
 * tests/test_l0_fastpath.cc.
 *
 * The contract is absolute: a machine with cpu.batch_enable on
 * produces byte-identical statistics and cycle counts to the plain
 * path, on every workload and config. Each equivalence test drives a
 * specific batch-breaking event — epoch bump mid-run, TLB purge,
 * promotion, recoloring, swap-out, page crossing, cache-line fill —
 * through the shared harness (tests/equivalence.hh), plus unit checks
 * on the counters that include the engine's batch counts.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "equivalence.hh"
#include "sim/system.hh"

using namespace mtlbsim;
using namespace mtlbsim::testeq;

namespace
{

/**
 * The canonical batch-breaking drive: a hot same-page loop long
 * enough to establish a deep batched run, the event under test fired
 * in the middle of it, then more same-page traffic so the engine
 * must recover through the slow path. The event is a function of the
 * System only, so the drive is identical under every config.
 */
void
hotLoopWithEvent(System &sys,
                 const std::function<void(System &)> &event)
{
    sys.kernel().addressSpace().addRegion("data", dataBase, 4 * MB,
                                          {});
    for (int i = 0; i < 2000; ++i) {
        if (i % 3 == 0)
            sys.cpu().store(dataBase + (i % 128) * 8);
        else
            sys.cpu().load(dataBase + (i % 128) * 8);
        if (i == 1000)
            event(sys);
    }
}

void
expectEventEquivalent(const std::function<void(System &)> &event,
                      const std::string &label)
{
    testeq::expectConfigsEquivalent(
        machine(false), machine(true),
        [&event](System &sys) { hotLoopWithEvent(sys, event); },
        label);
}

} // namespace

TEST(BatchEngine, EpochBumpMidRunBreaksTheBatch)
{
    // A bare epoch bump with no other state change: the engine must
    // drop the run and re-establish, with no statistical trace.
    expectEventEquivalent(
        [](System &sys) { sys.tlb().bumpTranslationEpoch(); },
        "epoch bump mid-run");
}

TEST(BatchEngine, TlbPurgeMidRunBreaksTheBatch)
{
    expectEventEquivalent(
        [](System &sys) {
            sys.tlb().purgeRange(dataBase, basePageSize);
        },
        "TLB purge mid-run");
}

TEST(BatchEngine, PromotionMidRunBreaksTheBatch)
{
    // remap() promotes the hot region onto a shadow superpage: the
    // physical (shadow) frame behind the batch's vpage changes.
    expectEventEquivalent(
        [](System &sys) { sys.cpu().remap(dataBase, MB); },
        "superpage promotion mid-run");
}

TEST(BatchEngine, RecolorMidRunBreaksTheBatch)
{
    // Recoloring moves the page to a different frame; physically
    // indexed cache is recoloring's habitat.
    auto config_off = machine(false);
    auto config_on = machine(true);
    config_off.cache.virtuallyIndexed = false;
    config_on.cache.virtuallyIndexed = false;
    testeq::expectConfigsEquivalent(
        config_off, config_on,
        [](System &sys) {
            hotLoopWithEvent(sys, [](System &s) {
                const unsigned color = s.kernel().colorOf(dataBase);
                s.cpu().recolorPage(dataBase, (color + 1) % 128);
            });
        },
        "recolor mid-run");
}

TEST(BatchEngine, SwapOutMidRunBreaksTheBatch)
{
    // Promote first so a superpage exists, re-heat the batch, then
    // swap it out mid-run: the following access takes a shadow page
    // fault, the heaviest possible slow path.
    testeq::expectConfigsEquivalent(
        machine(false), machine(true),
        [](System &sys) {
            sys.kernel().addressSpace().addRegion("data", dataBase,
                                                  4 * MB, {});
            sys.cpu().remap(dataBase, MB);
            for (int i = 0; i < 2000; ++i) {
                sys.cpu().store(dataBase + (i % 64) * 8);
                if (i == 1000) {
                    sys.kernel().swapOutSuperpagePagewise(
                        dataBase, sys.cpu().now());
                }
            }
        },
        "swap-out mid-run");
}

TEST(BatchEngine, PageBoundaryWalkBreaksPerPage)
{
    // A sequential walk crosses a page boundary every 4 KB; each
    // crossing must fall back and re-establish on the next page.
    testeq::expectConfigsEquivalent(
        machine(false), machine(true),
        [](System &sys) {
            sys.kernel().addressSpace().addRegion("data", dataBase,
                                                  4 * MB, {});
            for (Addr off = 0; off < 2 * MB; off += 8)
                sys.cpu().load(dataBase + off);
        },
        "sequential page-boundary walk");
}

TEST(BatchEngine, CacheLineFillMidPageBreaksTheBatch)
{
    // Two regions whose lines conflict in the direct-mapped cache
    // (same index, cache-size apart): ping-ponging between them
    // forces a line fill mid-page, which must always take the slow
    // path (fills touch the bus, the MMC, and the miss stats).
    testeq::expectConfigsEquivalent(
        machine(false), machine(true),
        [](System &sys) {
            const Addr cache_bytes =
                sys.config().cache.sizeBytes;
            sys.kernel().addressSpace().addRegion(
                "a", dataBase, cache_bytes + 4 * MB, {});
            for (int i = 0; i < 2000; ++i) {
                const Addr alias =
                    (i % 5 == 4) ? cache_bytes : 0;
                sys.cpu().load(dataBase + alias + (i % 16) * 8);
            }
        },
        "conflict-miss ping-pong");
}

TEST(BatchEngine, ReadOnlyPageLoadsStayEquivalent)
{
    // Loads on a read-only page batch (writable=false only blocks
    // stores); the engine must never let a batched access bypass the
    // protection model.
    testeq::expectConfigsEquivalent(
        machine(false), machine(true),
        [](System &sys) {
            sys.kernel().addressSpace().addRegion(
                "ro", dataBase, MB, PageProtection{false, true});
            for (int i = 0; i < 2000; ++i)
                sys.cpu().load(dataBase + (i % 256) * 4);
        },
        "read-only page loads");
}

TEST(BatchEngine, PeriodicAuditInterlockFiresIdentically)
{
    // With periodic auditing armed, the check hook must fire at the
    // same cycle boundaries whether or not accesses are batched (a
    // due check forces the slow path), and every audit must be clean
    // mid-batch. The audit stats land in the tree, so identity also
    // proves the fire times matched.
    auto config_off = machine(false);
    auto config_on = machine(true);
    config_off.check.enabled = true;
    config_off.check.interval = 5000;
    config_on.check.enabled = true;
    config_on.check.interval = 5000;
    testeq::expectConfigsEquivalent(
        config_off, config_on,
        [](System &sys) {
            sys.kernel().addressSpace().addRegion("data", dataBase,
                                                  4 * MB, {});
            for (int i = 0; i < 20000; ++i)
                sys.cpu().load(dataBase + (i % 512) * 8);
            sys.audit();
        },
        "periodic audits while batching");
}

TEST(BatchEngine, DeferredCountsFlushOnRead)
{
    // Unit check on the batch counts: a batched run counts its
    // accesses in host counters that the CPU's, TLB's and cache's
    // counters include, and the dirty bit is set at once (kernel swap
    // paths read it).
    System sys(machine(true));
    sys.kernel().addressSpace().addRegion("data", dataBase, MB, {});

    sys.cpu().store(dataBase);              // slow: fills the memo
    for (int i = 0; i < 99; ++i)
        sys.cpu().store(dataBase + 8 * (i % 4));   // batched

    // The store's architectural side effect is immediate: replay
    // sets the dirty bit as the slow path would.
    const auto entry = sys.tlb().probe(dataBase);
    ASSERT_TRUE(entry.has_value());
    EXPECT_TRUE(sys.cache().probeDirty(dataBase,
                                       entry->translate(dataBase)));

    // dataAccesses() includes the batch counts: all 100 stores.
    EXPECT_EQ(sys.cpu().dataAccesses(), 100u);

    // The audit passes, and the cache's accesses are its hits, the
    // batched ones among them, plus its misses.
    sys.audit();
    EXPECT_EQ(sys.cache().accesses(),
              sys.cache().hits() + sys.cache().misses());
}

TEST(BatchEngine, DisabledEngineNeverDefers)
{
    System sys(machine(false));
    sys.kernel().addressSpace().addRegion("data", dataBase, MB, {});
    for (int i = 0; i < 50; ++i)
        sys.cpu().load(dataBase + 8 * i);
    // With the engine off the memo stays empty and the batch counts
    // stay zero: a read (dataAccesses) must not move any counter.
    EXPECT_EQ(liveEntry(sys, dataBase), nullptr);
    const double cache_before = sys.cache().accesses();
    EXPECT_EQ(sys.cpu().dataAccesses(), 50u);
    EXPECT_EQ(sys.cache().accesses(), cache_before);
}

TEST(BatchEngine, DeferredCountsAreExactAtEveryRead)
{
    // Every counter a replay stands in for includes the batch counts,
    // so each read is exact with no call between. Drive the same ops
    // on a batch-on and a batch-off machine and compare, at several
    // points mid-run, first the TLB and cache counters, then the
    // CPU's own counters and the whole tree, which also holds
    // cpu.ifetch_checks and the micro-ITLB hits.
    constexpr Addr textBase = 0x00400000;
    System on(machine(true));
    System off(machine(false));
    for (System *sys : {&on, &off}) {
        AddressSpace &space = sys->kernel().addressSpace();
        space.addRegion("text", textBase, MB, {});
        space.addRegion("data", dataBase, MB, {});
    }
    auto drive = [](System &sys, int from, int to) {
        for (int i = from; i < to; ++i) {
            sys.cpu().executeAt(3, textBase + (i % 64) * 4);
            const Addr a = dataBase + (i % 96) * 8 + (i / 700) * 4096;
            if (i % 5 == 0)
                sys.cpu().store(a);
            else
                sys.cpu().load(a);
        }
    };

    int done = 0;
    for (const int until : {300, 1100, 2600, 4000}) {
        drive(on, done, until);
        drive(off, done, until);
        done = until;
        SCOPED_TRACE("after " + std::to_string(done) + " ops");
        EXPECT_GT(on.tlb().hits(), 0u);
        EXPECT_EQ(on.tlb().hits(), off.tlb().hits());
        EXPECT_EQ(on.cache().hits(), off.cache().hits());
        EXPECT_EQ(on.cache().accesses(), off.cache().accesses());
        EXPECT_EQ(on.cpu().dataAccesses(), off.cpu().dataAccesses());
        EXPECT_EQ(on.cpu().instructions(), off.cpu().instructions());
        EXPECT_EQ(on.rootStats().toJson().dumped(2),
                  off.rootStats().toJson().dumped(2));
    }
}
