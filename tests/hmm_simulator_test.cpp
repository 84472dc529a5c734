#include <gtest/gtest.h>

#include <complex>
#include <memory>

#include "util/stats.hpp"

#include "algos/bitonic_sort.hpp"
#include "algos/fft_direct.hpp"
#include "algos/fft_recursive.hpp"
#include "algos/matmul.hpp"
#include "algos/permutation.hpp"
#include "core/bounds.hpp"
#include "core/hmm_simulator.hpp"
#include "core/naive_hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "model/dbsp_machine.hpp"
#include "util/rng.hpp"
#include "workloads/collectives.hpp"

namespace dbsp::core {
namespace {

using model::AccessFunction;
using model::DbspMachine;
using model::Word;

/// Run `program` on the direct machine and on the HMM simulator (after
/// smoothing with the HMM label set for f) and require identical data words.
void expect_equivalent(std::unique_ptr<model::Program> make_direct,
                       std::unique_ptr<model::Program> make_sim,
                       const AccessFunction& f) {
    DbspMachine machine(f);
    const auto direct = machine.run(*make_direct);

    auto smoothed = smooth(*make_sim, hmm_label_set(f, make_sim->context_words(),
                                                    make_sim->num_processors()));
    HmmSimulator::Options options;
    options.check_invariants = true;
    const HmmSimulator sim(f, options);
    const auto simulated = sim.simulate(*smoothed);

    ASSERT_EQ(simulated.contexts.size(), direct.contexts.size());
    for (std::uint64_t p = 0; p < direct.contexts.size(); ++p) {
        ASSERT_EQ(simulated.data_of(p), direct.data_of(p)) << "processor " << p;
    }
}

TEST(HmmSimulator, RoutingEquivalence) {
    const auto f = AccessFunction::polynomial(0.5);
    expect_equivalent(
        std::make_unique<algo::RandomRoutingProgram>(128, std::vector<unsigned>{3, 0, 6, 2, 7, 1}, 42),
        std::make_unique<algo::RandomRoutingProgram>(128, std::vector<unsigned>{3, 0, 6, 2, 7, 1}, 42),
        f);
}

TEST(HmmSimulator, BroadcastEquivalence) {
    expect_equivalent(std::make_unique<algo::BroadcastProgram>(64, 0xFEEDu),
                      std::make_unique<algo::BroadcastProgram>(64, 0xFEEDu),
                      AccessFunction::logarithmic());
}

TEST(HmmSimulator, PrefixSumEquivalence) {
    SplitMix64 rng(8);
    std::vector<Word> in(128);
    for (auto& x : in) x = rng.next_below(999);
    expect_equivalent(std::make_unique<algo::PrefixSumProgram>(in),
                      std::make_unique<algo::PrefixSumProgram>(in),
                      AccessFunction::polynomial(0.35));
}

TEST(HmmSimulator, BitonicEquivalence) {
    SplitMix64 rng(9);
    std::vector<Word> keys(256);
    for (auto& k : keys) k = rng.next();
    expect_equivalent(std::make_unique<algo::BitonicSortProgram>(keys),
                      std::make_unique<algo::BitonicSortProgram>(keys),
                      AccessFunction::polynomial(0.5));
}

TEST(HmmSimulator, MatMulEquivalence) {
    SplitMix64 rng(10);
    std::vector<Word> a(256), b(256);
    for (auto& x : a) x = rng.next_below(1 << 10);
    for (auto& x : b) x = rng.next_below(1 << 10);
    expect_equivalent(std::make_unique<algo::MatMulProgram>(a, b),
                      std::make_unique<algo::MatMulProgram>(a, b),
                      AccessFunction::polynomial(0.5));
}

TEST(HmmSimulator, FftEquivalence) {
    SplitMix64 rng(11);
    std::vector<std::complex<double>> x(256);
    for (auto& c : x) c = {rng.next_double(), rng.next_double()};
    expect_equivalent(std::make_unique<algo::FftDirectProgram>(x),
                      std::make_unique<algo::FftDirectProgram>(x),
                      AccessFunction::logarithmic());
    expect_equivalent(std::make_unique<algo::FftRecursiveProgram>(x),
                      std::make_unique<algo::FftRecursiveProgram>(x),
                      AccessFunction::logarithmic());
}

/// Property-style sweep: random label sequences on varying machine sizes,
/// both access functions, must match direct execution exactly.
struct SweepCase {
    std::uint64_t v;
    std::uint64_t seed;
    double alpha;  ///< 0 = logarithmic
};

class HmmSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(HmmSweep, RandomProgramsEquivalent) {
    const auto& c = GetParam();
    SplitMix64 rng(c.seed);
    const unsigned log_v = ilog2(c.v);
    std::vector<unsigned> labels(6 + rng.next_below(6));
    for (auto& l : labels) l = static_cast<unsigned>(rng.next_below(log_v + 1));
    const auto f =
        c.alpha > 0 ? AccessFunction::polynomial(c.alpha) : AccessFunction::logarithmic();
    expect_equivalent(
        std::make_unique<algo::RandomRoutingProgram>(c.v, labels, c.seed * 7 + 1),
        std::make_unique<algo::RandomRoutingProgram>(c.v, labels, c.seed * 7 + 1), f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HmmSweep,
    ::testing::Values(SweepCase{2, 1, 0.5}, SweepCase{4, 2, 0.35}, SweepCase{8, 3, 0.0},
                      SweepCase{16, 4, 0.5}, SweepCase{32, 5, 0.75}, SweepCase{64, 6, 0.0},
                      SweepCase{128, 7, 0.5}, SweepCase{256, 8, 0.35},
                      SweepCase{512, 9, 0.0}, SweepCase{1024, 10, 0.5}));

TEST(HmmSimulator, SingleProcessorProgram) {
    expect_equivalent(std::make_unique<algo::BroadcastProgram>(1, 5),
                      std::make_unique<algo::BroadcastProgram>(1, 5),
                      AccessFunction::polynomial(0.5));
}

TEST(HmmSimulator, CostWithinTheorem5Bound) {
    // Corollary 6 (g = f): simulated time / (v * T) must sit in a constant
    // band across machine sizes.
    for (double alpha : {0.35, 0.5}) {
        const auto f = AccessFunction::polynomial(alpha);
        std::vector<double> ratios;
        for (std::uint64_t v : {64u, 256u, 1024u}) {
            const unsigned log_v = ilog2(v);
            std::vector<unsigned> labels;
            for (unsigned l = 0; l <= log_v; ++l) labels.push_back(log_v - l);
            algo::RandomRoutingProgram prog(v, labels, 77);
            DbspMachine machine(f);
            const auto direct = machine.run(prog);

            algo::RandomRoutingProgram prog2(v, labels, 77);
            auto smoothed = smooth(prog2, hmm_label_set(f, prog2.context_words(), v));
            const HmmSimulator sim(f);
            const auto simulated = sim.simulate(*smoothed);
            ratios.push_back(simulated.hmm_cost /
                             (static_cast<double>(v) * direct.time));
        }
        // Theta(v) slowdown: the ratio may wobble by constants but not grow
        // across a 16x machine-size range.
        EXPECT_LT(spread(ratios), 3.0) << "alpha=" << alpha;
    }
}

TEST(NaiveHmmSimulator, EquivalentOnBitonic) {
    SplitMix64 rng(13);
    std::vector<Word> keys(256);
    for (auto& k : keys) k = rng.next();

    algo::BitonicSortProgram direct_prog(keys);
    DbspMachine machine(AccessFunction::polynomial(0.5));
    const auto direct = machine.run(direct_prog);

    algo::BitonicSortProgram naive_prog(keys);
    const NaiveHmmSimulator naive(AccessFunction::polynomial(0.5));
    const auto r_naive = naive.simulate(naive_prog);
    for (std::uint64_t p = 0; p < 256; ++p) {
        ASSERT_EQ(r_naive.data_of(p), direct.data_of(p));
    }
}

TEST(NaiveHmmSimulator, LosesToLocalityAwareScheduleOnDeepSupersteps) {
    // The paper's point: submachine locality becomes temporal locality. A
    // program doing most of its communication deep in the cluster tree pays
    // f(mu v) per superstep under the pinned-context baseline but only
    // f(mu |C|) under the Figure 1 schedule.
    const std::uint64_t v = 1024;
    const unsigned log_v = ilog2(v);
    std::vector<unsigned> labels(40, log_v - 1);  // pairwise-local rounds
    labels.push_back(0);                          // one global round

    const auto f = AccessFunction::polynomial(0.5);
    algo::RandomRoutingProgram naive_prog(v, labels, 13);
    const NaiveHmmSimulator naive(f);
    const auto r_naive = naive.simulate(naive_prog);

    algo::RandomRoutingProgram smart_prog(v, labels, 13);
    auto smoothed = smooth(smart_prog, hmm_label_set(f, smart_prog.context_words(), v));
    const HmmSimulator smart(f);
    const auto r_smart = smart.simulate(*smoothed);

    for (std::uint64_t p = 0; p < v; ++p) {
        ASSERT_EQ(r_smart.data_of(p), r_naive.data_of(p));
    }
    EXPECT_LT(r_smart.hmm_cost, 0.5 * r_naive.hmm_cost);
}

}  // namespace
}  // namespace dbsp::core
