#include "util/bits.hpp"

namespace dbsp {

namespace {

/// Spread the low 32 bits of x so that bit k moves to bit 2k.
std::uint64_t spread_bits(std::uint64_t x) noexcept {
    x &= 0xffffffffull;
    x = (x | (x << 16)) & 0x0000ffff0000ffffull;
    x = (x | (x << 8)) & 0x00ff00ff00ff00ffull;
    x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0full;
    x = (x | (x << 2)) & 0x3333333333333333ull;
    x = (x | (x << 1)) & 0x5555555555555555ull;
    return x;
}

}  // namespace

std::uint64_t morton_encode(std::uint32_t row, std::uint32_t col) noexcept {
    return (spread_bits(row) << 1) | spread_bits(col);
}

}  // namespace dbsp
