#include <gtest/gtest.h>

#include <cmath>

#include "model/access_function.hpp"
#include "model/cost_table.hpp"

namespace dbsp::model {
namespace {

/// f(x) = x + 1: linear growth, outside the paper's class, for the checkers.
AccessFunction linear() {
    return AccessFunction::custom(
        "linear", [](double x) { return x + 1.0; }, [](double x) { return x; });
}

TEST(AccessFunction, PolynomialValues) {
    const auto f = AccessFunction::polynomial(0.5);
    EXPECT_DOUBLE_EQ(f(0), 1.0);
    EXPECT_DOUBLE_EQ(f(3), 2.0);
    EXPECT_DOUBLE_EQ(f(255), 16.0);
    EXPECT_TRUE(f.is_nondecreasing(1 << 20));
}

TEST(AccessFunction, LogarithmicValues) {
    const auto f = AccessFunction::logarithmic();
    EXPECT_DOUBLE_EQ(f(0), 1.0);
    EXPECT_DOUBLE_EQ(f(2), 2.0);
    EXPECT_DOUBLE_EQ(f(14), 4.0);
    EXPECT_TRUE(f.is_nondecreasing(1 << 20));
}

TEST(AccessFunction, ConstantAndLinear) {
    EXPECT_DOUBLE_EQ(AccessFunction::constant(2.5)(123456), 2.5);
    EXPECT_DOUBLE_EQ(linear()(9), 10.0);
}

TEST(AccessFunction, UniformityConstants) {
    // f(2x)/f(x): 2^alpha for polynomials, -> 1 for log, unbounded growth
    // ratio 2 for linear.
    EXPECT_NEAR(AccessFunction::polynomial(0.5).uniformity_constant(1 << 24),
                std::sqrt(2.0), 0.02);
    EXPECT_NEAR(AccessFunction::polynomial(0.35).uniformity_constant(1 << 24),
                std::pow(2.0, 0.35), 0.02);
    EXPECT_LT(AccessFunction::logarithmic().uniformity_constant(1 << 24), 2.0);
    EXPECT_NEAR(linear().uniformity_constant(1 << 24), 2.0, 0.01);
    EXPECT_DOUBLE_EQ(AccessFunction::constant().uniformity_constant(1 << 24), 1.0);
}

TEST(AccessFunction, IteratedFunction) {
    const auto f = AccessFunction::polynomial(0.5);
    EXPECT_DOUBLE_EQ(f.iterate(65536.0, 0), 65536.0);
    EXPECT_DOUBLE_EQ(f.iterate(65536.0, 1), 256.0);
    EXPECT_DOUBLE_EQ(f.iterate(65536.0, 2), 16.0);
    EXPECT_DOUBLE_EQ(f.iterate(65536.0, 3), 4.0);
}

TEST(AccessFunction, StarPolynomialIsLogLog) {
    const auto f = AccessFunction::polynomial(0.5);
    // x^(1/2): k applications of sqrt reach <= 1 only at x <= 1, so f* counts
    // doublings of the exponent: f*(2^2^k) ~ k + ... (log log growth).
    EXPECT_EQ(f.star(2.0), 1u);
    const unsigned s16 = f.star(65536.0);
    const unsigned s32 = f.star(static_cast<double>(1ull << 32));
    EXPECT_GT(s16, 2u);
    EXPECT_LE(s32, s16 + 2);  // doubly-logarithmic: one more doubling level
}

TEST(AccessFunction, StarLogarithmicIsLogStar) {
    const auto f = AccessFunction::logarithmic();
    EXPECT_LE(f.star(1e18), 6u);  // log*(2^60) = 5-ish
    EXPECT_GE(f.star(1e18), 3u);
}

TEST(AccessFunction, StarCapTerminates) {
    // A pure function that never descends must hit the cap.
    const auto f = AccessFunction::custom(
        "stuck", [](double) { return 5.0; }, [](double) { return 5.0; });
    EXPECT_EQ(f.star(100.0, 17), 17u);
}

TEST(CostTable, SingleCellCosts) {
    CostTable t(AccessFunction::polynomial(0.5), 1024);
    EXPECT_DOUBLE_EQ(t.cost(0), 1.0);
    EXPECT_DOUBLE_EQ(t.cost(3), 2.0);
}

TEST(CostTable, RangeCostMatchesSum) {
    CostTable t(AccessFunction::logarithmic(), 4096);
    double manual = 0;
    for (std::uint64_t x = 100; x < 300; ++x) manual += t.cost(x);
    EXPECT_NEAR(t.range_cost(100, 300), manual, 1e-9);
    EXPECT_DOUBLE_EQ(t.range_cost(5, 5), 0.0);
}

TEST(CostTable, ScanCostIsThetaNfN) {
    // Fact 1: scanning the first n cells costs Theta(n f(n)).
    for (const auto& f :
         {AccessFunction::polynomial(0.35), AccessFunction::polynomial(0.5),
          AccessFunction::logarithmic()}) {
        CostTable t(f, 1 << 18);
        for (std::uint64_t n : {1u << 10, 1u << 14, 1u << 18}) {
            const double ratio = t.scan_cost(n) / (static_cast<double>(n) * f(n - 1));
            EXPECT_GT(ratio, 0.4) << f.name() << " n=" << n;
            EXPECT_LT(ratio, 1.1) << f.name() << " n=" << n;
        }
    }
}

}  // namespace
}  // namespace dbsp::model
