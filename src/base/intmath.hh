/**
 * @file
 * Small integer-math helpers used throughout the simulator.
 */

#pragma once

#include <cstdint>

#include "base/logging.hh"

namespace mtlbsim
{

/** True when @p n is a (positive) power of two. */
constexpr bool
isPowerOf2(std::uint64_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/** Floor of log2(n); n must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t n)
{
    unsigned result = 0;
    while (n >>= 1)
        ++result;
    return result;
}

/** Ceiling of log2(n); n must be nonzero. */
constexpr unsigned
ceilLog2(std::uint64_t n)
{
    return floorLog2(n) + (isPowerOf2(n) ? 0 : 1);
}

/** Round @p v up to the next multiple of power-of-two @p align. */
constexpr std::uint64_t
roundUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Round @p v down to a multiple of power-of-two @p align. */
constexpr std::uint64_t
roundDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/** Integer division rounding up. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace mtlbsim
