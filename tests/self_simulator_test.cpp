#include <gtest/gtest.h>

#include <complex>

#include "algos/bitonic_sort.hpp"
#include "algos/fft_direct.hpp"
#include "algos/matmul.hpp"
#include "algos/permutation.hpp"
#include "core/bounds.hpp"
#include "core/self_simulator.hpp"
#include "model/dbsp_machine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/collectives.hpp"

namespace dbsp::core {
namespace {

using model::AccessFunction;
using model::DbspMachine;
using model::Word;

/// Check functional equivalence of the self-simulation for every legal v'.
template <typename MakeProgram>
void expect_self_equivalent(MakeProgram make, const AccessFunction& g) {
    auto reference_prog = make();
    DbspMachine machine(g);
    const auto direct = machine.run(*reference_prog);
    const std::uint64_t v = reference_prog->num_processors();
    for (std::uint64_t vp = 1; vp <= v; vp *= 2) {
        auto prog = make();
        const SelfSimulator sim(g, vp);
        const auto host = sim.simulate(*prog);
        for (std::uint64_t p = 0; p < v; ++p) {
            ASSERT_EQ(host.data_of(p), direct.data_of(p)) << "v'=" << vp << " p=" << p;
        }
    }
}

TEST(SelfSimulator, RoutingEquivalentForAllHostSizes) {
    expect_self_equivalent(
        [] {
            return std::make_unique<algo::RandomRoutingProgram>(
                64, std::vector<unsigned>{0, 3, 6, 2, 5, 1}, 31);
        },
        AccessFunction::polynomial(0.5));
}

TEST(SelfSimulator, BitonicEquivalentForAllHostSizes) {
    SplitMix64 rng(32);
    std::vector<Word> keys(64);
    for (auto& k : keys) k = rng.next();
    expect_self_equivalent([&] { return std::make_unique<algo::BitonicSortProgram>(keys); },
                           AccessFunction::logarithmic());
}

TEST(SelfSimulator, MatMulEquivalentForAllHostSizes) {
    SplitMix64 rng(33);
    std::vector<Word> a(64), b(64);
    for (auto& x : a) x = rng.next_below(64);
    for (auto& x : b) x = rng.next_below(64);
    expect_self_equivalent([&] { return std::make_unique<algo::MatMulProgram>(a, b); },
                           AccessFunction::polynomial(0.35));
}

TEST(SelfSimulator, FftEquivalentForAllHostSizes) {
    SplitMix64 rng(34);
    std::vector<std::complex<double>> x(64);
    for (auto& c : x) c = {rng.next_double(), rng.next_double()};
    expect_self_equivalent([&] { return std::make_unique<algo::FftDirectProgram>(x); },
                           AccessFunction::logarithmic());
}

TEST(SelfSimulator, HostEqualsGuestIsCheap) {
    // v' = v: every superstep is global, one guest per host processor; the
    // host time should be within a constant of the guest time.
    algo::RandomRoutingProgram prog(128, {0, 2, 4, 1}, 35);
    DbspMachine machine(AccessFunction::logarithmic());
    const auto direct = machine.run(prog);

    algo::RandomRoutingProgram prog2(128, {0, 2, 4, 1}, 35);
    const SelfSimulator sim(AccessFunction::logarithmic(), 128);
    const auto host = sim.simulate(prog2);
    EXPECT_LT(host.host_time, 40.0 * direct.time);
}

TEST(SelfSimulator, NoHierarchyInducedExtraSlowdown) {
    // The paper's headline claim against [BP97/BP99]: scaling down the
    // number of processors costs only the loss of parallelism. With the
    // ratio v/v' held fixed and v growing, the normalized slowdown
    // host_time / (T * v/v') must stay within a constant band — in the Md
    // model the analogous quantity grows like Lambda(n, p, m).
    const auto g = AccessFunction::polynomial(0.5);
    const std::uint64_t ratio_v_vp = 16;
    std::vector<double> normalized;
    for (std::uint64_t v : {64u, 256u, 1024u}) {
        std::vector<unsigned> labels;
        for (unsigned l = 0; l <= ilog2(v); ++l) labels.push_back(ilog2(v) - l);
        // fill_messages makes this a *full* program (h = Theta(mu)), the
        // hypothesis of Corollary 11.
        algo::RandomRoutingProgram guest(v, labels, 36, /*local_ops=*/0,
                                         /*fill_messages=*/5);
        DbspMachine machine(g);
        const double guest_time = machine.run(guest).time;

        algo::RandomRoutingProgram prog(v, labels, 36, 0, 5);
        const SelfSimulator sim(g, v / ratio_v_vp);
        const auto host = sim.simulate(prog);
        normalized.push_back(host.host_time /
                             (guest_time * static_cast<double>(ratio_v_vp)));
    }
    EXPECT_LT(spread(normalized), 3.0);
}

TEST(SelfSimulator, SlowdownScalesWithVOverVPrime) {
    // Coarse sanity on the v' dependence at fixed v: the log-log slope of
    // host_time against v' sits near -1 (within the constant-factor wobble
    // of the context-vs-relation encoding), far from the -2 that a
    // hierarchy-induced Lambda ~ v/v' extra slowdown would produce.
    const auto g = AccessFunction::polynomial(0.5);
    const std::uint64_t v = 256;
    std::vector<unsigned> labels;
    for (unsigned l = 0; l <= ilog2(v); ++l) labels.push_back(ilog2(v) - l);
    std::vector<double> vps, times;
    for (std::uint64_t vp : {1u, 4u, 16u, 64u, 256u}) {
        algo::RandomRoutingProgram prog(v, labels, 36, 0, 5);
        const SelfSimulator sim(g, vp);
        const auto host = sim.simulate(prog);
        vps.push_back(static_cast<double>(vp));
        times.push_back(host.host_time);
    }
    const auto fit = fit_loglog(vps, times);
    EXPECT_LT(fit.slope, -0.7);
    EXPECT_GT(fit.slope, -1.6);
}

TEST(SelfSimulator, GlobalAndLocalRunsAreCounted) {
    // Labels 0 (global for any v' > 1) and log v (always local).
    algo::RandomRoutingProgram prog(64, {0, 6, 6, 0, 6}, 37);
    const SelfSimulator sim(AccessFunction::logarithmic(), 8);
    const auto host = sim.simulate(prog);
    EXPECT_GT(host.global_supersteps, 0u);
    EXPECT_GT(host.local_runs, 0u);
    EXPECT_GT(host.local_time, 0.0);
    EXPECT_GT(host.communication_time, 0.0);
}

}  // namespace
}  // namespace dbsp::core
