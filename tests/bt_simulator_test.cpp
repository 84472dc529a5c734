#include <gtest/gtest.h>

#include <complex>
#include <memory>

#include "algos/bitonic_sort.hpp"
#include "algos/fft_direct.hpp"
#include "algos/fft_recursive.hpp"
#include "algos/matmul.hpp"
#include "algos/permutation.hpp"
#include "core/bt_simulator.hpp"
#include "core/naive_bt_simulator.hpp"
#include "core/smoothing.hpp"
#include "model/dbsp_machine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/collectives.hpp"

namespace dbsp::core {
namespace {

using model::AccessFunction;
using model::DbspMachine;
using model::Word;

void expect_bt_equivalent(std::unique_ptr<model::Program> direct_prog,
                          std::unique_ptr<model::Program> sim_prog,
                          const AccessFunction& f, bool rational = false) {
    DbspMachine machine(AccessFunction::logarithmic());
    const auto direct = machine.run(*direct_prog);

    auto smoothed =
        smooth(*sim_prog, bt_label_set(f, sim_prog->context_words(),
                                       sim_prog->num_processors()));
    BtSimulator::Options options;
    options.check_invariants = true;
    options.use_rational_permutations = rational;
    const BtSimulator sim(f, options);
    const auto simulated = sim.simulate(*smoothed);

    ASSERT_EQ(simulated.contexts.size(), direct.contexts.size());
    for (std::uint64_t p = 0; p < direct.contexts.size(); ++p) {
        ASSERT_EQ(simulated.data_of(p), direct.data_of(p)) << "processor " << p;
    }
}

TEST(BtSimulator, RoutingEquivalence) {
    expect_bt_equivalent(
        std::make_unique<algo::RandomRoutingProgram>(64, std::vector<unsigned>{2, 0, 5, 3, 1}, 21),
        std::make_unique<algo::RandomRoutingProgram>(64, std::vector<unsigned>{2, 0, 5, 3, 1}, 21),
        AccessFunction::polynomial(0.5));
}

TEST(BtSimulator, BroadcastEquivalence) {
    expect_bt_equivalent(std::make_unique<algo::BroadcastProgram>(32, 0xBEEFu),
                         std::make_unique<algo::BroadcastProgram>(32, 0xBEEFu),
                         AccessFunction::logarithmic());
}

TEST(BtSimulator, PrefixSumEquivalence) {
    SplitMix64 rng(14);
    std::vector<Word> in(64);
    for (auto& x : in) x = rng.next_below(500);
    expect_bt_equivalent(std::make_unique<algo::PrefixSumProgram>(in),
                         std::make_unique<algo::PrefixSumProgram>(in),
                         AccessFunction::polynomial(0.35));
}

TEST(BtSimulator, BitonicEquivalence) {
    SplitMix64 rng(15);
    std::vector<Word> keys(128);
    for (auto& k : keys) k = rng.next();
    expect_bt_equivalent(std::make_unique<algo::BitonicSortProgram>(keys),
                         std::make_unique<algo::BitonicSortProgram>(keys),
                         AccessFunction::polynomial(0.5));
}

TEST(BtSimulator, MatMulEquivalence) {
    SplitMix64 rng(16);
    std::vector<Word> a(64), b(64);
    for (auto& x : a) x = rng.next_below(1000);
    for (auto& x : b) x = rng.next_below(1000);
    expect_bt_equivalent(std::make_unique<algo::MatMulProgram>(a, b),
                         std::make_unique<algo::MatMulProgram>(a, b),
                         AccessFunction::logarithmic());
}

TEST(BtSimulator, FftEquivalenceSortDelivery) {
    SplitMix64 rng(17);
    std::vector<std::complex<double>> x(64);
    for (auto& c : x) c = {rng.next_double(), rng.next_double()};
    expect_bt_equivalent(std::make_unique<algo::FftDirectProgram>(x),
                         std::make_unique<algo::FftDirectProgram>(x),
                         AccessFunction::polynomial(0.35));
}

TEST(BtSimulator, FftRecursiveWithRationalPermutations) {
    SplitMix64 rng(18);
    std::vector<std::complex<double>> x(256);
    for (auto& c : x) c = {rng.next_double(), rng.next_double()};
    // Identical results with sort-based and transpose-based delivery.
    expect_bt_equivalent(std::make_unique<algo::FftRecursiveProgram>(x),
                         std::make_unique<algo::FftRecursiveProgram>(x),
                         AccessFunction::polynomial(0.35), /*rational=*/false);
    expect_bt_equivalent(std::make_unique<algo::FftRecursiveProgram>(x),
                         std::make_unique<algo::FftRecursiveProgram>(x),
                         AccessFunction::polynomial(0.35), /*rational=*/true);
}

TEST(BtSimulator, RationalPermutationPathIsTakenAndCheaper) {
    SplitMix64 rng(19);
    std::vector<std::complex<double>> x(256);
    for (auto& c : x) c = {rng.next_double(), rng.next_double()};

    const auto f = AccessFunction::polynomial(0.35);
    algo::FftRecursiveProgram p1(x);
    auto s1 = smooth(p1, bt_label_set(f, p1.context_words(), 256));
    BtSimulator::Options with;
    with.use_rational_permutations = true;
    const auto r_rational = BtSimulator(f, with).simulate(*s1);
    EXPECT_GT(r_rational.transpose_invocations, 0u);

    algo::FftRecursiveProgram p2(x);
    auto s2 = smooth(p2, bt_label_set(f, p2.context_words(), 256));
    const auto r_sorted = BtSimulator(f).simulate(*s2);
    EXPECT_EQ(r_sorted.transpose_invocations, 0u);
    EXPECT_LT(r_rational.bt_cost, r_sorted.bt_cost);
}

struct BtSweepCase {
    std::uint64_t v;
    std::uint64_t seed;
    double alpha;  ///< 0 = logarithmic
};

class BtSweep : public ::testing::TestWithParam<BtSweepCase> {};

TEST_P(BtSweep, RandomProgramsEquivalent) {
    const auto& c = GetParam();
    SplitMix64 rng(c.seed);
    const unsigned log_v = ilog2(c.v);
    std::vector<unsigned> labels(4 + rng.next_below(5));
    for (auto& l : labels) l = static_cast<unsigned>(rng.next_below(log_v + 1));
    const auto f =
        c.alpha > 0 ? AccessFunction::polynomial(c.alpha) : AccessFunction::logarithmic();
    expect_bt_equivalent(
        std::make_unique<algo::RandomRoutingProgram>(c.v, labels, c.seed * 13 + 5),
        std::make_unique<algo::RandomRoutingProgram>(c.v, labels, c.seed * 13 + 5), f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BtSweep,
    ::testing::Values(BtSweepCase{2, 1, 0.5}, BtSweepCase{4, 2, 0.35},
                      BtSweepCase{8, 3, 0.0}, BtSweepCase{16, 4, 0.5},
                      BtSweepCase{32, 5, 0.0}, BtSweepCase{64, 6, 0.35},
                      BtSweepCase{128, 7, 0.5}, BtSweepCase{256, 8, 0.0}));

TEST(BtSimulator, SingleProcessor) {
    expect_bt_equivalent(std::make_unique<algo::BroadcastProgram>(1, 3),
                         std::make_unique<algo::BroadcastProgram>(1, 3),
                         AccessFunction::polynomial(0.5));
}

TEST(BtSimulator, CostIndependentOfAccessFunction) {
    // Theorem 12: the BT simulation time does not depend on f(x).
    SplitMix64 rng(23);
    std::vector<Word> keys(128);
    for (auto& k : keys) k = rng.next();

    std::vector<double> costs;
    for (const auto& f : {AccessFunction::polynomial(0.35), AccessFunction::polynomial(0.5),
                          AccessFunction::logarithmic()}) {
        algo::BitonicSortProgram prog(keys);
        auto smoothed = smooth(prog, bt_label_set(f, prog.context_words(), 128));
        const auto r = BtSimulator(f).simulate(*smoothed);
        costs.push_back(r.bt_cost);
    }
    // Constants differ per f (chunk sizes, COMPUTE's c(n)), but there is no
    // f-dependent growth; E8 shows the ratios stay flat as v scales.
    EXPECT_LT(spread(costs), 4.0);
}

TEST(NaiveBtSimulator, EquivalentToDirectExecution) {
    SplitMix64 rng(24);
    std::vector<Word> a(256), b(256);
    for (auto& x : a) x = rng.next_below(100);
    for (auto& x : b) x = rng.next_below(100);

    algo::MatMulProgram direct_prog(a, b);
    DbspMachine machine(AccessFunction::logarithmic());
    const auto direct = machine.run(direct_prog);

    algo::MatMulProgram naive_prog(a, b);
    const auto r_naive = NaiveBtSimulator(AccessFunction::polynomial(0.5)).simulate(naive_prog);
    for (std::uint64_t p = 0; p < 256; ++p) {
        ASSERT_EQ(r_naive.data_of(p), direct.data_of(p));
    }
}

TEST(NaiveBtSimulator, GapToSmartSimulatorWidensWithMachineSize) {
    // Section 5.3: the trivial step-by-step port pays Theta(f(mu v)) per
    // context per superstep, so the naive/smart cost ratio must grow with v
    // (the crossover itself is measured by bench_e9).
    const auto f = AccessFunction::polynomial(0.5);
    std::vector<double> ratio;
    for (std::uint64_t n : {256u, 1024u}) {
        SplitMix64 rng(25);
        std::vector<Word> a(n), b(n);
        for (auto& x : a) x = rng.next_below(100);
        for (auto& x : b) x = rng.next_below(100);

        algo::MatMulProgram naive_prog(a, b);
        const auto r_naive = NaiveBtSimulator(f).simulate(naive_prog);

        algo::MatMulProgram smart_prog(a, b);
        auto smoothed = smooth(smart_prog, bt_label_set(f, smart_prog.context_words(), n));
        const auto r_smart = BtSimulator(f).simulate(*smoothed);
        ratio.push_back(r_naive.bt_cost / r_smart.bt_cost);
    }
    EXPECT_GT(ratio[1], 1.4 * ratio[0]);
}

}  // namespace
}  // namespace dbsp::core
