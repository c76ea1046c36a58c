/**
 * @file
 * Multiprogramming runner: capture once, time-slice everywhere.
 *
 * The bundled workloads drive one CPU directly, so multiprogramming
 * them needs their operation streams in replayable form. A program is
 * captured by running its workload against a scratch single-core
 * machine (same configuration, checks off) whose CPU has a record
 * sink set (Cpu::setRecorder): loads, stores and executes are only
 * recorded, never simulated, while kernel services still run so sbrk
 * returns the breaks the program expects. The captured image —
 * declared regions, heap parameters, and the full 12-byte-per-op
 * CpuOpRecord stream — can then be replayed into any process of any
 * machine.
 *
 * runMultiprogMix() captures each distinct program once, assigns the
 * images to the kernel's M processes — processes running the same
 * program share its image — and time-slices them over the machine's
 * N cores with a round-robin scheduler (SchedConfig): each core runs
 * its process until the quantum expires or the program ends, then
 * switches to the head of a global FIFO ready queue, paying the
 * configured switch cost (Kernel::bindProcess purges the core's
 * translation state; the ASID-less TLB forces that). Cores advance
 * in global time order — always the core with the smallest clock
 * issues next — so a mix's interleaving is a pure function of its
 * inputs and results are deterministic for any host thread count.
 *
 * With one core and one process no slice ever has a rival, the
 * initial binding is a no-op, and replay degenerates to exactly the
 * op-for-op direct run — the equivalence tests/test_multicore.cc
 * pins byte-for-byte.
 */

#pragma once

#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "os/address_space.hh"
#include "sim/system.hh"

namespace mtlbsim
{

/** A captured program: everything needed to replay one workload's
 *  machine interaction into an arbitrary process. Read-only once
 *  captured, so any number of processes can replay one image. */
struct ProgramImage
{
    std::string workload;
    /** Regions the program declared, in declaration order. The heap
     *  region (if any) is re-created through Kernel::initHeap at
     *  replay so the sbrk machinery is armed. */
    std::vector<VmRegion> regions;
    bool hasHeap = false;
    Addr heapBase = 0;
    Addr heapBytes = 0;
    std::vector<CpuOpRecord> ops;
};

/**
 * Capture @p workload_name's operation stream by running it to
 * completion against a scratch machine derived from @p machine
 * (forced to one core, auditing off) that records its ops without
 * simulating them. The stream a workload issues depends only on its
 * own configuration, so the capture is reusable across machine
 * shapes.
 */
ProgramImage captureProgram(const std::string &workload_name,
                            double scale, std::uint64_t seed,
                            const SystemConfig &machine);

/**
 * Replay @p programs (one per process, in order; program 0 runs in
 * the kernel's initial process) over all of @p sys's cores under the
 * configured round-robin scheduler. Returns the finish time — the
 * slowest core's clock when the last program completes.
 *
 * Any number of programs works: with fewer programs than cores the
 * extra cores stay idle.
 */
Cycles runPrograms(System &sys,
                   const std::vector<ProgramImage> &programs);

/**
 * Convenience entry used by the sweep runner and tests: capture each
 * distinct name in @p workloads once at @p scale / @p seed, then
 * replay the mix on @p sys with process i running workloads[i] —
 * pass M names (repeats welcome) for an M-process mix. Repeats
 * replay the one image of their program; none is copied.
 */
Cycles runMultiprogMix(System &sys,
                       const std::vector<std::string> &workloads,
                       double scale, std::uint64_t seed);

} // namespace mtlbsim
