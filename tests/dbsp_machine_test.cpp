#include <gtest/gtest.h>

#include <numeric>

#include "algos/permutation.hpp"
#include "model/dbsp_machine.hpp"
#include "util/rng.hpp"
#include "workloads/collectives.hpp"

namespace dbsp {
namespace {

using algo::BroadcastProgram;
using algo::PrefixSumProgram;
using algo::RandomRoutingProgram;
using algo::ReduceProgram;
using model::AccessFunction;
using model::DbspMachine;
using model::Word;

TEST(DbspMachine, BroadcastReachesEveryone) {
    for (std::uint64_t v : {1u, 2u, 8u, 64u}) {
        BroadcastProgram prog(v, 0xABCDu);
        DbspMachine machine(AccessFunction::logarithmic());
        const auto result = machine.run(prog);
        for (std::uint64_t p = 0; p < v; ++p) {
            EXPECT_EQ(result.data_of(p)[0], 0xABCDu) << "v=" << v << " p=" << p;
        }
    }
}

TEST(DbspMachine, ReduceComputesSum) {
    SplitMix64 rng(11);
    for (std::uint64_t v : {1u, 4u, 32u, 256u}) {
        std::vector<Word> in(v);
        Word expected = 0;
        for (auto& x : in) {
            x = rng.next();
            expected += x;
        }
        ReduceProgram prog(in);
        DbspMachine machine(AccessFunction::polynomial(0.5));
        const auto result = machine.run(prog);
        EXPECT_EQ(result.data_of(0)[0], expected) << "v=" << v;
    }
}

TEST(DbspMachine, PrefixSumMatchesSerial) {
    SplitMix64 rng(12);
    for (std::uint64_t v : {1u, 2u, 16u, 128u}) {
        std::vector<Word> in(v);
        for (auto& x : in) x = rng.next_below(1000);
        PrefixSumProgram prog(in);
        DbspMachine machine(AccessFunction::logarithmic());
        const auto result = machine.run(prog);
        Word acc = 0;
        for (std::uint64_t p = 0; p < v; ++p) {
            EXPECT_EQ(result.data_of(p)[0], acc) << "v=" << v << " p=" << p;
            acc += in[p];
        }
    }
}

TEST(DbspMachine, RoutingFollowsPermutations) {
    RandomRoutingProgram prog(64, {0, 2, 5, 1, 6, 0}, /*seed=*/99);
    DbspMachine machine(AccessFunction::logarithmic());
    const auto result = machine.run(prog);
    for (std::uint64_t p = 0; p < 64; ++p) {
        EXPECT_EQ(result.data_of(p)[0], prog.expected(p));
    }
}

TEST(DbspMachine, CostModelChargesPerSuperstepFormula) {
    // One routing round at label 2 on 16 processors, h = 1:
    // cost = (tau_0 + 1*g(mu*4)) + (tau_1 + 0) for the final sync.
    RandomRoutingProgram prog(16, {2}, 5);
    const auto g = AccessFunction::polynomial(0.5);
    DbspMachine machine(g);
    const auto result = machine.run(prog);
    ASSERT_EQ(result.supersteps.size(), 2u);
    const auto& s0 = result.supersteps[0];
    EXPECT_EQ(s0.label, 2u);
    EXPECT_EQ(s0.h, 1u);
    const double mu = static_cast<double>(prog.context_words());
    EXPECT_DOUBLE_EQ(s0.comm_arg, mu * 4.0);
    EXPECT_DOUBLE_EQ(s0.cost, static_cast<double>(s0.tau) + g.at(mu * 4.0));
    EXPECT_DOUBLE_EQ(result.time, result.supersteps[0].cost + result.supersteps[1].cost);
}

TEST(DbspMachine, LocalOpsRaiseTau) {
    RandomRoutingProgram cheap(16, {0}, 5, /*local_ops=*/0);
    RandomRoutingProgram heavy(16, {0}, 5, /*local_ops=*/500);
    DbspMachine machine(AccessFunction::logarithmic());
    const auto r_cheap = machine.run(cheap);
    const auto r_heavy = machine.run(heavy);
    EXPECT_GT(r_heavy.supersteps[0].tau, r_cheap.supersteps[0].tau + 400);
    EXPECT_GT(r_heavy.time, r_cheap.time + 400);
    // Same functional result regardless of local work.
    for (std::uint64_t p = 0; p < 16; ++p) {
        EXPECT_EQ(r_cheap.data_of(p)[0], r_heavy.data_of(p)[0]);
    }
}

TEST(DbspMachine, CommunicationVsComputationSplit) {
    RandomRoutingProgram prog(32, {0, 1}, 3);
    DbspMachine machine(AccessFunction::polynomial(0.35));
    const auto result = machine.run(prog);
    EXPECT_NEAR(result.communication_time() + result.computation_time(), result.time,
                1e-9);
    EXPECT_GT(result.communication_time(), 0.0);
}

}  // namespace
}  // namespace dbsp
