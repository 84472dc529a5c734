#include <gtest/gtest.h>

#include <complex>
#include <memory>

#include "algos/bitonic_sort.hpp"
#include "algos/collectives.hpp"
#include "algos/fft_direct.hpp"
#include "algos/fft_recursive.hpp"
#include "algos/matmul.hpp"
#include "algos/odd_even_sort.hpp"
#include "algos/permutation.hpp"
#include "algos/transpose_program.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/self_simulator.hpp"
#include "core/smoothing.hpp"
#include "model/dbsp_machine.hpp"
#include "util/rng.hpp"

namespace dbsp {
namespace {

using model::AccessFunction;
using model::DbspMachine;
using model::Program;
using model::Word;

/// The consistency matrix: every workload under every case-study access
/// function must produce identical data words on all four executors (direct,
/// HMM simulator, BT simulator, self-simulator at v' = v/4). This is the
/// repository's master invariant, swept broadly in one place.
struct CrossCase {
    const char* workload;
    std::size_t f_index;  ///< into case-study functions {x^0.35, x^0.5, log}
};

void PrintTo(const CrossCase& c, std::ostream* os) {
    *os << c.workload << "/f" << c.f_index;
}

AccessFunction function_at(std::size_t i) {
    switch (i) {
        case 0: return AccessFunction::polynomial(0.35);
        case 1: return AccessFunction::polynomial(0.5);
        default: return AccessFunction::logarithmic();
    }
}

std::unique_ptr<Program> make_workload(const std::string& name) {
    constexpr std::uint64_t v = 64;
    SplitMix64 rng(2026);
    if (name == "bitonic" || name == "oddeven") {
        std::vector<Word> keys(v);
        for (auto& k : keys) k = rng.next();
        if (name == "bitonic") return std::make_unique<algo::BitonicSortProgram>(keys);
        return std::make_unique<algo::OddEvenTranspositionSortProgram>(keys);
    }
    if (name == "matmul") {
        std::vector<Word> a(v), b(v);
        for (auto& x : a) x = rng.next_below(1 << 12);
        for (auto& x : b) x = rng.next_below(1 << 12);
        return std::make_unique<algo::MatMulProgram>(a, b);
    }
    if (name == "fft") {
        std::vector<std::complex<double>> x(v);
        for (auto& c : x) c = {rng.next_double(), rng.next_double()};
        return std::make_unique<algo::FftDirectProgram>(x);
    }
    if (name == "transpose") {
        std::vector<Word> values(v);
        for (auto& x : values) x = rng.next();
        return std::make_unique<algo::TransposeProgram>(values, 2);
    }
    if (name == "prefix") {
        std::vector<Word> in(v);
        for (auto& x : in) x = rng.next_below(1000);
        return std::make_unique<algo::PrefixSumProgram>(in);
    }
    // mixed-label routing with filler traffic
    return std::make_unique<algo::RandomRoutingProgram>(
        v, std::vector<unsigned>{0, 4, 2, 6, 1, 5}, 77, 1, 2);
}

class CrossExecutor : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossExecutor, AllExecutorsAgreeBitForBit) {
    const auto& c = GetParam();
    const auto f = function_at(c.f_index);
    const std::uint64_t v = 64;

    auto direct_prog = make_workload(c.workload);
    DbspMachine machine(f);
    const auto direct = machine.run(*direct_prog);

    auto hmm_prog = make_workload(c.workload);
    auto hs = core::smooth(*hmm_prog, core::hmm_label_set(f, hmm_prog->context_words(), v));
    const auto hmm = core::HmmSimulator(f).simulate(*hs);

    auto bt_prog = make_workload(c.workload);
    auto bs = core::smooth(*bt_prog, core::bt_label_set(f, bt_prog->context_words(), v));
    const auto bt = core::BtSimulator(f).simulate(*bs);

    auto self_prog = make_workload(c.workload);
    const core::SelfSimulator self_sim(f, v / 4);
    const auto host = self_sim.simulate(*self_prog);

    for (std::uint64_t p = 0; p < v; ++p) {
        ASSERT_EQ(hmm.data_of(p), direct.data_of(p)) << "HMM p=" << p;
        ASSERT_EQ(bt.data_of(p), direct.data_of(p)) << "BT p=" << p;
        ASSERT_EQ(host.data_of(p), direct.data_of(p)) << "self p=" << p;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrossExecutor,
    ::testing::Values(CrossCase{"bitonic", 0}, CrossCase{"bitonic", 1},
                      CrossCase{"bitonic", 2}, CrossCase{"oddeven", 0},
                      CrossCase{"oddeven", 2}, CrossCase{"matmul", 0},
                      CrossCase{"matmul", 1}, CrossCase{"matmul", 2},
                      CrossCase{"fft", 0}, CrossCase{"fft", 1}, CrossCase{"fft", 2},
                      CrossCase{"transpose", 0}, CrossCase{"transpose", 2},
                      CrossCase{"prefix", 0}, CrossCase{"prefix", 1},
                      CrossCase{"prefix", 2}, CrossCase{"routing", 0},
                      CrossCase{"routing", 1}, CrossCase{"routing", 2}));

TEST(CrossExecutor, RationalDeliveryAgreesOnRecursiveFft) {
    SplitMix64 rng(4);
    std::vector<std::complex<double>> x(256);
    for (auto& c : x) c = {rng.next_double(), rng.next_double()};
    const auto f = AccessFunction::polynomial(0.35);

    algo::FftRecursiveProgram direct_prog(x);
    DbspMachine machine(f);
    const auto direct = machine.run(direct_prog);

    for (bool rational : {false, true}) {
        algo::FftRecursiveProgram prog(x);
        auto smoothed = core::smooth(prog, core::bt_label_set(f, prog.context_words(), 256));
        core::BtSimulator::Options options;
        options.use_rational_permutations = rational;
        options.check_invariants = true;
        const auto res = core::BtSimulator(f, options).simulate(*smoothed);
        for (std::uint64_t p = 0; p < 256; ++p) {
            ASSERT_EQ(res.data_of(p), direct.data_of(p)) << "rational=" << rational;
        }
    }
}

}  // namespace
}  // namespace dbsp
