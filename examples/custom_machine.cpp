/**
 * @file
 * Driving a custom machine directly through the public API — no
 * bundled workload, your own access pattern.
 *
 * Shows the minimal lifecycle a library user follows:
 *   1. describe the machine with SystemConfig (every knob the paper
 *      varies is here: TLB entries, MTLB geometry, cache, DRAM, bus,
 *      kernel cost model);
 *   2. declare the process's memory regions;
 *   3. optionally remap() regions onto shadow superpages;
 *   4. issue execute()/load()/store() from your own code;
 *   5. read the statistics.
 *
 * The pattern here is a sparse pointer-chase: a few thousand hot
 * records scattered across an 8 MB arena, touching only a line or
 * two per page. The whole hot set fits in the 512 KB cache but
 * spans ~20x more pages than the CPU TLB maps — the exact structure
 * (per §1) where TLB reach, not cache capacity, is the bottleneck,
 * and where shadow superpages win outright.
 *
 * Usage: custom_machine
 */

#include <iostream>

#include "sim/system.hh"

using namespace mtlbsim;

namespace
{

/** Chase @p count records scattered through the arena, @p reps
 *  times. Each visit reads two fields of a 64-byte record. */
void
sparseChase(Cpu &cpu, Addr arena, Addr arena_bytes, unsigned count,
            unsigned reps)
{
    for (unsigned r = 0; r < reps; ++r) {
        std::uint64_t x = 0x2545f4914f6cdd1dULL;
        for (unsigned i = 0; i < count; ++i) {
            // Deterministic scatter (xorshift), 64-byte aligned.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const Addr record = arena + (x % arena_bytes & ~Addr{63});
            cpu.execute(6);     // next-pointer computation
            cpu.load(record);
            cpu.load(record + 32);
        }
    }
}

} // namespace

int
main()
{
    // 1. Describe the machine. Start from defaults (the paper's
    //    §3.2 system) and customise.
    SystemConfig config;
    config.tlbEntries = 96;             // HP PA8000-class
    config.mtlb.numEntries = 256;       // a roomier MTLB than §3.4's
    config.mtlb.associativity = 4;
    config.installedBytes = Addr{128} * 1024 * 1024;
    config.cpu.loadUseOverlap = 4;      // mild stall-on-use overlap

    for (const bool with_mtlb : {false, true}) {
        config.mtlbEnabled = with_mtlb;
        System sys(config);

        // 2. Declare regions: an 8 MB record arena.
        const Addr arena = 0x10000000;
        const Addr arena_bytes = Addr{8} * 1024 * 1024;
        sys.kernel().addressSpace().addRegion("arena", arena,
                                              arena_bytes, {});

        // 3. Shadow superpages (a no-op on the conventional run).
        sys.cpu().remap(arena, arena_bytes);

        // 4. Drive it: 4096 hot records, revisited 20 times.
        sparseChase(sys.cpu(), arena, arena_bytes, 4096, 20);

        // 5. Read the results.
        std::cout << (with_mtlb ? "with MTLB:   " : "conventional: ")
                  << sys.totalCycles() << " cycles, "
                  << 100.0 * sys.tlbMissFraction()
                  << "% in TLB miss handling, "
                  << sys.tlb().misses() << " TLB misses\n";

        if (with_mtlb) {
            std::cout << "\nfull statistics dump (with MTLB):\n";
            sys.dumpStats(std::cout);
        }
    }
    return 0;
}
