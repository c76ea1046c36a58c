/**
 * @file
 * A fixed-size bitset whose set bits can be visited in index order.
 *
 * The translation structures keep one beside their entries (valid
 * shadow PTEs, busy HPT buckets, free frames, present pages), so a
 * walk over the live entries costs one word test per 64 entries plus
 * one step per live entry, not one step per entry of the machine.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace mtlbsim
{

class Bitset
{
  public:
    /** @p bits bits, all equal to @p value. */
    explicit Bitset(std::size_t bits = 0, bool value = false)
        : words_((bits + 63) / 64, value ? ~std::uint64_t{0} : 0)
    {
        if (value && bits % 64 != 0)
            words_.back() = (std::uint64_t{1} << (bits % 64)) - 1;
    }

    bool
    test(std::size_t i) const
    {
        return (words_[i / 64] >> (i % 64)) & 1;
    }

    void set(std::size_t i) { words_[i / 64] |= bit(i); }
    void reset(std::size_t i) { words_[i / 64] &= ~bit(i); }

    /** No set bit (firstSetFrom). */
    static constexpr std::size_t npos = ~std::size_t{0};

    /** The first set bit at or after @p i, or npos; one word test per
     *  64 bits skipped. */
    std::size_t
    firstSetFrom(std::size_t i) const
    {
        std::size_t w = i / 64;
        if (w >= words_.size())
            return npos;
        std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (i % 64));
        while (bits == 0) {
            if (++w == words_.size())
                return npos;
            bits = words_[w];
        }
        return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }

    /** Call @p fn(i) for every set bit i, in increasing order. @p fn
     *  must not change this bitset. */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            for (std::uint64_t bits = words_[w]; bits != 0;
                 bits &= bits - 1) {
                fn(w * 64 +
                   static_cast<std::size_t>(std::countr_zero(bits)));
            }
        }
    }

  private:
    static std::uint64_t
    bit(std::size_t i)
    {
        return std::uint64_t{1} << (i % 64);
    }

    std::vector<std::uint64_t> words_;
};

} // namespace mtlbsim
