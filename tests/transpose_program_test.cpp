#include <gtest/gtest.h>

#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "model/dbsp_machine.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "workloads/transpose_program.hpp"

namespace dbsp::algo {
namespace {

using model::AccessFunction;
using model::DbspMachine;
using model::Word;

std::vector<Word> iota_values(std::uint64_t v) {
    std::vector<Word> values(v);
    for (std::uint64_t i = 0; i < v; ++i) values[i] = i;
    return values;
}

class TransposeProgramParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransposeProgramParam, PermutesCorrectly) {
    const std::uint64_t v = GetParam();
    const std::uint64_t side = std::uint64_t{1} << (ilog2(v) / 2);
    TransposeProgram prog(iota_values(v));
    DbspMachine machine(AccessFunction::logarithmic());
    const auto result = machine.run(prog);
    for (std::uint64_t r = 0; r < side; ++r) {
        for (std::uint64_t c = 0; c < side; ++c) {
            // After the transpose, processor (r, c) holds the value that
            // started at (c, r).
            ASSERT_EQ(result.data_of(r * side + c)[0], c * side + r);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransposeProgramParam, ::testing::Values(4, 16, 64, 256, 1024));

TEST(TransposeProgram, DoubleTransposeIsIdentity) {
    const std::uint64_t v = 64;
    TransposeProgram prog(iota_values(v), /*rounds=*/2);
    DbspMachine machine(AccessFunction::polynomial(0.5));
    const auto result = machine.run(prog);
    for (std::uint64_t p = 0; p < v; ++p) EXPECT_EQ(result.data_of(p)[0], p);
}

TEST(TransposeProgram, DeclaresRationalPermutation) {
    TransposeProgram prog(iota_values(16), 3);
    EXPECT_EQ(prog.permutation_class(0), model::PermutationClass::kTranspose);
    EXPECT_EQ(prog.permutation_grain(1), 16u);
    EXPECT_EQ(prog.permutation_class(3), model::PermutationClass::kGeneral);
}

TEST(TransposeProgram, BtSimulatorUsesTransposeDelivery) {
    const std::uint64_t v = 256;
    SplitMix64 rng(8);
    std::vector<Word> values(v);
    for (auto& x : values) x = rng.next();

    const auto f = AccessFunction::polynomial(0.35);
    TransposeProgram direct_prog(values, 4);
    DbspMachine machine(f);
    const auto direct = machine.run(direct_prog);

    TransposeProgram rat_prog(values, 4);
    auto sr = core::smooth(rat_prog, core::bt_label_set(f, rat_prog.context_words(), v));
    core::BtSimulator::Options with;
    with.use_rational_permutations = true;
    const auto r_rat = core::BtSimulator(f, with).simulate(*sr);
    EXPECT_EQ(r_rat.transpose_invocations, 4u);

    TransposeProgram sort_prog(values, 4);
    auto ss = core::smooth(sort_prog, core::bt_label_set(f, sort_prog.context_words(), v));
    const auto r_sort = core::BtSimulator(f).simulate(*ss);

    for (std::uint64_t p = 0; p < v; ++p) {
        ASSERT_EQ(r_rat.data_of(p), direct.data_of(p));
        ASSERT_EQ(r_sort.data_of(p), direct.data_of(p));
    }
    // On a pure-permutation workload the rational path must win clearly.
    EXPECT_LT(r_rat.bt_cost, r_sort.bt_cost);
}

TEST(TransposeProgram, HmmEquivalence) {
    const std::uint64_t v = 64;
    SplitMix64 rng(9);
    std::vector<Word> values(v);
    for (auto& x : values) x = rng.next();
    const auto f = AccessFunction::logarithmic();

    TransposeProgram a(values, 3);
    DbspMachine machine(f);
    const auto direct = machine.run(a);

    TransposeProgram b(values, 3);
    auto smoothed = core::smooth(b, core::hmm_label_set(f, b.context_words(), v));
    const auto sim = core::HmmSimulator(f).simulate(*smoothed);
    for (std::uint64_t p = 0; p < v; ++p) {
        ASSERT_EQ(sim.data_of(p), direct.data_of(p));
    }
}

}  // namespace
}  // namespace dbsp::algo
