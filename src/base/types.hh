/**
 * @file
 * Fundamental simulator types: addresses, cycle counts, access kinds.
 *
 * The simulated machine follows the paper's configuration: a 240 MHz
 * single-issue CPU on a 120 MHz Runway-like bus, so one bus/MMC cycle
 * equals two CPU cycles. All latencies in the simulator are kept in
 * CPU cycles; MMC-side components convert at the boundary.
 */

#pragma once

#include <cstdint>

namespace mtlbsim
{

/** A virtual, shadow-physical, or real-physical address. */
using Addr = std::uint64_t;

/** A count of CPU cycles (the simulator's base time unit). */
using Cycles = std::uint64_t;

/** A count of retired instructions. */
using Counter = std::uint64_t;

/** CPU clock rate modelled by the paper's simulator (§3.2). */
constexpr std::uint64_t cpuClockMHz = 240;

/** Runway bus / MMC clock rate (§3.2). */
constexpr std::uint64_t mmcClockMHz = 120;

/** CPU cycles per MMC cycle (exact in this configuration). */
constexpr Cycles cpuCyclesPerMmcCycle = cpuClockMHz / mmcClockMHz;

static_assert(cpuClockMHz % mmcClockMHz == 0,
              "CPU clock must be an integer multiple of the MMC clock");

/** Convert MMC cycles to CPU cycles. */
constexpr Cycles
mmcToCpuCycles(Cycles mmc_cycles)
{
    return mmc_cycles * cpuCyclesPerMmcCycle;
}

/** The kind of memory reference a CPU issues. */
enum class AccessType : std::uint8_t
{
    Read,       ///< data load
    Write,      ///< data store
    IFetch,     ///< instruction fetch
};

/** Privilege level of an access, for protection checking. */
enum class AccessMode : std::uint8_t
{
    User,
    Kernel,
};

/** Base page parameters: 4 KB pages, as in PA-RISC 2.0 (§1, §2.2). */
constexpr unsigned basePageShift = 12;
constexpr Addr basePageSize = Addr{1} << basePageShift;
constexpr Addr basePageMask = basePageSize - 1;

/** Cache line parameters: 32-byte lines (§3.2). */
constexpr unsigned cacheLineShift = 5;
constexpr Addr cacheLineSize = Addr{1} << cacheLineShift;
constexpr Addr cacheLineMask = cacheLineSize - 1;

/** Extract the base-page frame number of an address. */
constexpr Addr
pageFrame(Addr addr)
{
    return addr >> basePageShift;
}

/** Round an address down to its base-page boundary. */
constexpr Addr
pageBase(Addr addr)
{
    return addr & ~basePageMask;
}

/** Byte offset of an address within its base page. */
constexpr Addr
pageOffset(Addr addr)
{
    return addr & basePageMask;
}

/** Round an address down to its cache-line boundary. */
constexpr Addr
lineBase(Addr addr)
{
    return addr & ~cacheLineMask;
}

} // namespace mtlbsim
