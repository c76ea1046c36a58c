/**
 * @file
 * Deterministic pseudo-random number generation for workload models.
 *
 * A small xorshift-based generator is used instead of <random> engines
 * so that traces are bit-identical across standard-library versions —
 * important for reproducible experiments.
 */

#pragma once

#include <cstdint>
#include <initializer_list>

namespace mtlbsim
{

/**
 * xorshift128+ generator: fast, deterministic, and adequate for
 * driving synthetic memory-access patterns.
 */
class Random
{
  public:
    /** Seed the generator; the same seed always yields the same
     *  sequence. A zero seed is remapped to a fixed constant. */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        if (seed == 0)
            seed = 0x9e3779b97f4a7c15ULL;
        // SplitMix64 to spread the seed across both words of state.
        for (auto *word : {&s0_, &s1_}) {
            seed += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            *word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = s0_;
        const std::uint64_t y = s1_;
        s0_ = y;
        x ^= x << 23;
        s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1_ + y;
    }

    /** Uniform value in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform value in [lo, hi] inclusive. */
    std::uint64_t
    inRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli draw with probability @p numer / @p denom. */
    bool
    chance(std::uint64_t numer, std::uint64_t denom)
    {
        return below(denom) < numer;
    }

  private:
    std::uint64_t s0_ = 0;
    std::uint64_t s1_ = 0;
};

} // namespace mtlbsim
