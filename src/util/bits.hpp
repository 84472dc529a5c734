#pragma once

/// \file bits.hpp
/// Bit-manipulation helpers shared by the machine models: power-of-two
/// arithmetic, integer logarithms, bit reversal and Morton (Z-order) codes.
/// Morton codes give the quadrant-recursive matrix layout used by the D-BSP
/// matrix-multiplication algorithm (Fig. 3 of the paper), where the top two
/// bits of a processor index select its 2-cluster/quadrant.

#include <cstdint>

namespace dbsp {

/// True iff \p x is a power of two (0 is not).
constexpr bool is_pow2(std::uint64_t x) noexcept { return x != 0 && (x & (x - 1)) == 0; }

/// floor(log2(x)); requires x > 0.
constexpr unsigned ilog2(std::uint64_t x) noexcept {
    unsigned r = 0;
    while (x > 1) {
        x >>= 1;
        ++r;
    }
    return r;
}

/// Smallest power of two >= x; requires x >= 1.
constexpr std::uint64_t next_pow2(std::uint64_t x) noexcept {
    std::uint64_t p = 1;
    while (p < x) p <<= 1;
    return p;
}

/// Reverse the low \p bits bits of \p x (classic FFT index permutation).
constexpr std::uint64_t reverse_bits(std::uint64_t x, unsigned bits) noexcept {
    std::uint64_t r = 0;
    for (unsigned i = 0; i < bits; ++i) {
        r = (r << 1) | ((x >> i) & 1u);
    }
    return r;
}

/// Interleave the low 32 bits of \p row and \p col into a Morton code:
/// bit 2k of the result is bit k of \p col, bit 2k+1 is bit k of \p row.
std::uint64_t morton_encode(std::uint32_t row, std::uint32_t col) noexcept;

/// Integer power base^exp (no overflow checking; callers use small values).
constexpr std::uint64_t ipow(std::uint64_t base, unsigned exp) noexcept {
    std::uint64_t r = 1;
    while (exp-- > 0) r *= base;
    return r;
}

}  // namespace dbsp
