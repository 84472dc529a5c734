#include <gtest/gtest.h>

#include <cmath>

#include <numeric>

#include "core/bounds.hpp"
#include "hmm/machine.hpp"
#include "hmm/primitives.hpp"
#include "util/rng.hpp"

namespace dbsp::hmm {
namespace {

using model::AccessFunction;

TEST(HmmMachine, ReadWriteChargesAccessCost) {
    Machine m(AccessFunction::polynomial(0.5), 1024);
    m.write(0, 7);
    EXPECT_DOUBLE_EQ(m.cost(), 1.0);  // f(0) = 1
    EXPECT_EQ(m.read(0), 7u);
    EXPECT_DOUBLE_EQ(m.cost(), 2.0);
    m.reset_cost();
    m.write(255, 1);
    EXPECT_DOUBLE_EQ(m.cost(), 16.0);  // (255+1)^0.5
}

TEST(HmmMachine, SwapBlocksMovesDataAndCharges) {
    Machine m(AccessFunction::constant(), 64);
    for (int i = 0; i < 8; ++i) m.raw()[i] = 100 + i;
    for (int i = 0; i < 8; ++i) m.raw()[32 + i] = 200 + i;
    m.reset_cost();
    m.swap_blocks(0, 32, 8);
    EXPECT_EQ(m.raw()[0], 200u);
    EXPECT_EQ(m.raw()[32], 100u);
    EXPECT_EQ(m.raw()[39], 107u);
    // 2 * (8 + 8) unit-cost accesses under the constant function.
    EXPECT_DOUBLE_EQ(m.cost(), 32.0);
}

TEST(HmmMachine, CopyBlockCharges) {
    Machine m(AccessFunction::constant(), 64);
    for (int i = 0; i < 4; ++i) m.raw()[i] = 5 + i;
    m.reset_cost();
    m.copy_block(0, 10, 4);
    EXPECT_EQ(m.raw()[10], 5u);
    EXPECT_EQ(m.raw()[13], 8u);
    EXPECT_DOUBLE_EQ(m.cost(), 8.0);
}

TEST(HmmMachineDeathTest, OverlappingSwapAborts) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Machine m(AccessFunction::constant(), 64);
    EXPECT_DEATH(m.swap_blocks(0, 4, 8), "Precondition");
}

TEST(HmmMachine, TouchAllMatchesFact1) {
    // Fact 1: the scan cost is Theta(n f(n)); the exact value equals the
    // prefix sum of f.
    for (const auto& f : {AccessFunction::polynomial(0.35),
                          AccessFunction::polynomial(0.5), AccessFunction::logarithmic()}) {
        Machine m(f, 1 << 14);
        touch_all(m, 1 << 14);
        EXPECT_DOUBLE_EQ(m.cost(), m.table().scan_cost(1 << 14));
        const double bound = core::fact1_bound(f, 1 << 14);
        EXPECT_GT(m.cost() / bound, 0.4) << f.name();
        EXPECT_LT(m.cost() / bound, 1.1) << f.name();
    }
}

TEST(HmmMachine, ObliviousMergeSortSorts) {
    SplitMix64 rng(4);
    const std::uint64_t n = 500;
    Machine m(AccessFunction::polynomial(0.5), 2 * n);
    std::vector<std::uint64_t> ref(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        ref[i] = rng.next_below(10000);
        m.raw()[i] = ref[i];
    }
    oblivious_merge_sort(m, n);
    std::sort(ref.begin(), ref.end());
    for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(m.raw()[i], ref[i]);
    // The oblivious sort pays ~ f(n) per comparison: Omega(n log n) total.
    EXPECT_GT(m.cost(), static_cast<double>(n) * std::log2(n));
}

TEST(HmmMachine, ObliviousMatmulComputes) {
    const std::uint64_t s = 8;
    Machine m(AccessFunction::logarithmic(), 4 * s * s);
    auto raw = m.raw();
    for (std::uint64_t i = 0; i < s * s; ++i) {
        raw[i] = i % 7;           // A
        raw[s * s + i] = i % 5;   // B
    }
    oblivious_matmul(m, 0, s * s, 2 * s * s, s);
    for (std::uint64_t i = 0; i < s; ++i) {
        for (std::uint64_t j = 0; j < s; ++j) {
            std::uint64_t acc = 0;
            for (std::uint64_t k = 0; k < s; ++k) {
                acc += ((i * s + k) % 7) * ((k * s + j) % 5);
            }
            EXPECT_EQ(raw[2 * s * s + i * s + j], acc);
        }
    }
}

}  // namespace
}  // namespace dbsp::hmm
