/**
 * @file
 * Multiprogramming runner: each process streams its ops from its own
 * generator, and a scheduler time-slices the processes over the
 * machine's cores.
 *
 * The bundled workloads drive one CPU directly, so a mix of them
 * needs each process's operation stream in a form a scheduler can
 * interleave. runWorkloads() runs each process's workload on a
 * stackful generator context (glibc ucontext) against a private
 * generator machine: one core, no MTLB, auditing off and a 4 KB
 * cache, whose CPU records the workload's ops instead of simulating
 * them (Cpu::setRecorder) into a bounded ring of 16k CpuOpRecords.
 * When the ring is full the generator yields; the scheduler replays
 * the ring into the process on the real machine and resumes the
 * generator only once the ring is empty. The generator machine's
 * kernel still runs sbrk(), whose result is the bump pointer every
 * machine returns, so a workload sees the breaks it would see on the
 * real machine; workloads read nothing else back. A mix thus holds
 * one ring, one generator machine and one workload per process, and
 * its memory does not grow with the programs' lengths.
 *
 * A process's layout is declared on the real machine after its
 * generator's first ring fill: every workload declares its regions
 * before its first op, and a region declared after the first ring
 * was handed out is a FatalError. An exception a workload throws
 * leaves the mix from the scheduler, and generators still suspended
 * then are resumed once to unwind their frames.
 *
 * Scheduling is a global round-robin (SchedConfig): each core runs
 * its process until the quantum expires or the program ends, then
 * switches to the head of a FIFO ready queue, paying the configured
 * switch cost (Kernel::bindProcess purges the core's translation
 * state; the ASID-less TLB forces that). Cores advance in global
 * time order — always the core with the smallest clock issues next
 * — so a mix's interleaving is a pure function of its inputs and
 * results are deterministic for any host thread count.
 *
 * captureProgram() drains one generator into a whole ProgramImage,
 * and runPrograms() runs the same scheduler over such images. With
 * one core and one process no slice ever has a rival, the initial
 * binding is a no-op, and a mix degenerates to exactly the op-for-op
 * direct run — the equivalence tests/test_multicore.cc pins
 * byte-for-byte.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "os/address_space.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace mtlbsim
{

/** What a program declares before its first op: its regions. */
struct ProgramLayout
{
    std::string workload;
    /** Regions the program declared, in declaration order. The heap
     *  region (if any) is re-created through Kernel::initHeap when
     *  the layout is declared, so the sbrk machinery is armed. */
    std::vector<VmRegion> regions;
    bool hasHeap = false;
    Addr heapBase = 0;
    Addr heapBytes = 0;
};

/** A captured program: its layout and its whole op stream, read-only
 *  once captured, so any number of processes can run one image. */
struct ProgramImage : ProgramLayout
{
    std::vector<CpuOpRecord> ops;
};

/**
 * Capture @p workload_name's whole operation stream by draining its
 * generator (see the file comment; @p machine supplies every knob
 * but the generator machine's own). The stream a workload issues
 * depends only on its own configuration, so the image is reusable
 * across machine shapes.
 */
ProgramImage captureProgram(const std::string &workload_name,
                            double scale, std::uint64_t seed,
                            const SystemConfig &machine);

/**
 * Run @p programs (one per process, in order; program 0 runs in the
 * kernel's initial process) over all of @p sys's cores under the
 * configured round-robin scheduler. Returns the finish time — the
 * slowest core's clock when the last program completes.
 *
 * Any number of programs works: with fewer programs than cores the
 * extra cores stay idle.
 */
Cycles runPrograms(System &sys,
                   const std::vector<ProgramImage> &programs);

/**
 * The streamed mix: process i runs @p workloads[i], each on its own
 * generator, under the scheduler runPrograms() uses. An exception a
 * workload throws leaves this call.
 */
Cycles runWorkloads(System &sys,
                    std::vector<std::unique_ptr<Workload>> workloads);

/**
 * Convenience entry used by the sweep runner and tests: build one
 * workload per name in @p workloads at @p scale / @p seed (an
 * unknown name fails before anything runs) and run them with
 * runWorkloads() — pass M names (repeats welcome) for an M-process
 * mix.
 */
Cycles runMultiprogMix(System &sys,
                       const std::vector<std::string> &workloads,
                       double scale, std::uint64_t seed);

} // namespace mtlbsim
