/**
 * @file
 * Word-level operations over the SpecMask bitset storage, at every
 * mask width the core is built for. The speculation sweeps
 * (§3.1/§3.2) and the subscriber bookkeeping spend their time asking
 * three questions — "is bit p set (and clear it)", "do these masks
 * intersect", "which bits are set" — and the idiomatic std::bitset
 * spellings hide the word-parallel answers behind per-call-site
 * test/reset pairs and full-mask temporaries. This header names the
 * patterns once so the hot paths read as intent and compile to the
 * underlying word scans.
 *
 * The scans view the bitset as an array of 64-bit words (std::bit_cast
 * — libstdc++ stores bit b of a bitset in word b/64 at position b%64,
 * which on a little-endian host is exactly the uint64 array layout)
 * and walk set bits with countr_zero + clear-lowest-bit loops: no
 * per-bit branch, zero words cost one compare each. Hosts where that
 * layout assumption does not hold fall back to a portable per-word
 * shift loop over to_ullong-sized chunks.
 */

#ifndef VSIM_CORE_MASK_OPS_HH
#define VSIM_CORE_MASK_OPS_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "window_types.hh"

namespace vsim::core::mask
{

/** @return whether @p bit was set; the bit is clear afterwards. */
template <std::size_t Bits>
inline bool
testAndClear(SpecMask<Bits> &m, std::size_t bit)
{
    if (!m.test(bit))
        return false;
    m.reset(bit);
    return true;
}

/** Any bit set in both masks? (One word-parallel AND, no branch per bit.) */
template <std::size_t Bits>
inline bool
anyIntersect(const SpecMask<Bits> &a, const SpecMask<Bits> &b)
{
    return (a & b).any();
}

template <std::size_t Bits>
inline constexpr std::size_t kMaskWords = Bits / 64;

/** The mask reinterpreted as ascending 64-bit words (word i holds
 *  bits [64i, 64i+64)). */
template <std::size_t Bits>
using MaskWords = std::array<std::uint64_t, kMaskWords<Bits>>;

/** Direct word view is valid: libstdc++ unsigned-long storage on a
 *  little-endian LP64 host with a whole number of words. */
template <std::size_t Bits>
inline constexpr bool kDirectWordView =
#if defined(__GLIBCXX__)
    std::endian::native == std::endian::little
    && sizeof(SpecMask<Bits>) == sizeof(MaskWords<Bits>)
    && Bits % 64 == 0;
#else
    false;
#endif

/** @return word @p wi of @p m (bits [64*wi, 64*wi+64)), loaded in
 *  place — no full-mask copy, so early-exit scans touch only the
 *  words they read. The memcpy compiles to a single 8-byte load. */
template <std::size_t Bits>
inline std::uint64_t
wordAt(const SpecMask<Bits> &m, std::size_t wi)
{
    if constexpr (kDirectWordView<Bits>) {
        std::uint64_t w;
        std::memcpy(&w,
                    reinterpret_cast<const unsigned char *>(&m)
                        + wi * sizeof(std::uint64_t),
                    sizeof(w));
        return w;
    } else {
        return ((m >> (wi * 64)) & SpecMask<Bits>(~0ull)).to_ullong();
    }
}

/** Set the bits of @p w in word @p wi of @p m, in place. */
template <std::size_t Bits>
inline void
orWordAt(SpecMask<Bits> &m, std::size_t wi, std::uint64_t w)
{
    if constexpr (kDirectWordView<Bits>) {
        unsigned char *p =
            reinterpret_cast<unsigned char *>(&m) + wi * sizeof(w);
        std::uint64_t cur;
        std::memcpy(&cur, p, sizeof(cur));
        cur |= w;
        std::memcpy(p, &cur, sizeof(cur));
    } else {
        m |= SpecMask<Bits>(w) << (wi * 64);
    }
}

/** @return @p m as 64-bit words, cheapest way the host allows. */
template <std::size_t Bits>
inline MaskWords<Bits>
toWords(const SpecMask<Bits> &m)
{
    if constexpr (kDirectWordView<Bits>) {
        return std::bit_cast<MaskWords<Bits>>(m);
    } else {
        MaskWords<Bits> words{};
        for (std::size_t w = 0; w < kMaskWords<Bits>; ++w)
            words[w] = wordAt(m, w);
        return words;
    }
}

/**
 * Call @p fn(int bit) for every set bit of @p m, ascending. Word
 * parallel and branchless per bit: each word is consumed by a
 * countr_zero / clear-lowest-set loop, so the iteration count equals
 * the popcount plus one compare per word.
 */
template <std::size_t Bits, typename Fn>
inline void
forEachSetBit(const SpecMask<Bits> &m, Fn &&fn)
{
    // Unrolled: sparse masks pay mostly loop overhead otherwise, and
    // the trip count is a compile-time constant (2 to 8 words).
#pragma GCC unroll 8
    for (std::size_t wi = 0; wi < kMaskWords<Bits>; ++wi) {
        std::uint64_t w = wordAt(m, wi);
        const int base = static_cast<int>(wi * 64);
        while (w) {
            fn(base + std::countr_zero(w));
            w &= w - 1;
        }
    }
}

/** First set bit of @p m, or -1 when empty. */
template <std::size_t Bits>
inline int
findFirst(const SpecMask<Bits> &m)
{
#pragma GCC unroll 8
    for (std::size_t wi = 0; wi < kMaskWords<Bits>; ++wi) {
        const std::uint64_t w = wordAt(m, wi);
        if (w)
            return static_cast<int>(wi * 64) + std::countr_zero(w);
    }
    return -1;
}

} // namespace vsim::core::mask

#endif // VSIM_CORE_MASK_OPS_HH
