#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>

#include "algos/permutation.hpp"
#include "algos/serial_reference.hpp"
#include "bt/machine.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/self_simulator.hpp"
#include "core/smoothing.hpp"
#include "hmm/machine.hpp"
#include "model/dbsp_machine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/collectives.hpp"

namespace dbsp {
namespace {

using model::AccessFunction;
using model::DbspMachine;
using model::Word;

// --- machine edge cases ------------------------------------------------------

TEST(EdgeCases, HmmZeroLengthBulkOpsAreFree) {
    hmm::Machine m(AccessFunction::polynomial(0.5), 64);
    m.swap_blocks(0, 32, 0);
    m.copy_block(0, 32, 0);
    m.read_range(10, std::span<Word>{});
    EXPECT_DOUBLE_EQ(m.cost(), 0.0);
}

TEST(EdgeCases, BtZeroLengthBlockCopyIsFree) {
    bt::Machine m(AccessFunction::logarithmic(), 64);
    m.block_copy(0, 32, 0);
    EXPECT_DOUBLE_EQ(m.cost(), 0.0);
    EXPECT_EQ(m.block_transfers(), 0u);
}

TEST(EdgeCases, AdjacentBlocksAreDisjointEnough) {
    // Exactly adjacent ranges must be accepted by the disjointness check.
    hmm::Machine m(AccessFunction::constant(), 64);
    m.swap_blocks(0, 8, 8);
    bt::Machine b(AccessFunction::constant(), 64);
    b.block_copy(0, 8, 8);
    SUCCEED();
}

// --- access-function edge cases ---------------------------------------------

TEST(EdgeCases, CustomAccessFunction) {
    // A two-level "cache" cost function: 1 up to 256, then 10.
    const auto f = AccessFunction::custom(
        "two-level", [](double x) { return x < 256 ? 1.0 : 10.0; },
        [](double x) { return x < 256 ? 0.0 : 10.0; });
    EXPECT_DOUBLE_EQ(f(0), 1.0);
    EXPECT_DOUBLE_EQ(f(1000), 10.0);
    EXPECT_TRUE(f.is_nondecreasing(1 << 12));
    // Usable end-to-end by the HMM simulator.
    algo::RandomRoutingProgram prog(32, {1, 4, 0}, 3);
    auto smoothed = core::smooth(prog, core::full_label_set(32));
    const auto res = core::HmmSimulator(f).simulate(*smoothed);
    DbspMachine machine(AccessFunction::constant());
    algo::RandomRoutingProgram prog2(32, {1, 4, 0}, 3);
    const auto direct = machine.run(prog2);
    for (std::uint64_t p = 0; p < 32; ++p) {
        EXPECT_EQ(res.data_of(p), direct.data_of(p));
    }
}

// --- program edge cases -------------------------------------------------------

TEST(EdgeCases, ProgramWithOnlyFinalSync) {
    // Zero-communication program: one 0-superstep doing nothing.
    algo::RandomRoutingProgram prog(16, {}, 1);
    DbspMachine machine(AccessFunction::logarithmic());
    const auto run = machine.run(prog);
    EXPECT_EQ(run.supersteps.size(), 1u);
    EXPECT_EQ(run.supersteps[0].h, 0u);
    for (std::uint64_t p = 0; p < 16; ++p) EXPECT_EQ(run.data_of(p)[0], p);
}

TEST(EdgeCases, SelfSendIsLegalAtEveryLabel) {
    // dest == proc is within every cluster, including label log v.
    class SelfSend final : public model::Program {
    public:
        std::string name() const override { return "self-send"; }
        std::uint64_t num_processors() const override { return 8; }
        std::size_t data_words() const override { return 1; }
        std::size_t max_messages() const override { return 1; }
        model::StepIndex num_supersteps() const override { return 2; }
        unsigned label(model::StepIndex s) const override { return s == 0 ? 3 : 0; }
        void step(model::StepIndex s, model::ProcId p, model::StepContext& ctx) override {
            if (s == 0) {
                ctx.send(p, p * 11);
            } else {
                EXPECT_EQ(ctx.inbox_size(), 1u);
                ctx.store(0, ctx.inbox(0).payload0);
            }
        }
    } prog;
    DbspMachine machine(AccessFunction::polynomial(0.5));
    const auto run = machine.run(prog);
    for (std::uint64_t p = 0; p < 8; ++p) EXPECT_EQ(run.data_of(p)[0], p * 11);
    // And through both simulators.
    SelfSend prog2, prog3;
    auto sh = core::smooth(prog2, core::full_label_set(8));
    const auto hs = core::HmmSimulator(AccessFunction::polynomial(0.5)).simulate(*sh);
    auto sb = core::smooth(prog3, core::full_label_set(8));
    const auto bs = core::BtSimulator(AccessFunction::polynomial(0.5)).simulate(*sb);
    for (std::uint64_t p = 0; p < 8; ++p) {
        EXPECT_EQ(hs.data_of(p), run.data_of(p));
        EXPECT_EQ(bs.data_of(p), run.data_of(p));
    }
}

TEST(EdgeCases, InboxPersistsAcrossNonReadingSupersteps) {
    // A message sent in superstep 0 is read three supersteps later; the
    // intervening steps never touch the inbox.
    class DelayedRead final : public model::Program {
    public:
        std::string name() const override { return "delayed-read"; }
        std::uint64_t num_processors() const override { return 4; }
        std::size_t data_words() const override { return 1; }
        std::size_t max_messages() const override { return 1; }
        model::StepIndex num_supersteps() const override { return 4; }
        unsigned label(model::StepIndex) const override { return 0; }
        void step(model::StepIndex s, model::ProcId p, model::StepContext& ctx) override {
            if (s == 0) ctx.send(p ^ 1, 500 + p);
            if (s == 3) {
                EXPECT_EQ(ctx.inbox_size(), 1u);
                ctx.store(0, ctx.inbox(0).payload0);
            }
        }
    } prog;
    DbspMachine machine(AccessFunction::logarithmic());
    const auto run = machine.run(prog);
    for (std::uint64_t p = 0; p < 4; ++p) EXPECT_EQ(run.data_of(p)[0], 500 + (p ^ 1));
    // Same through the HMM simulator (the dummy-superstep-safety property).
    DelayedRead prog2;
    auto smoothed = core::smooth(prog2, core::full_label_set(4));
    const auto sim = core::HmmSimulator(AccessFunction::logarithmic()).simulate(*smoothed);
    for (std::uint64_t p = 0; p < 4; ++p) EXPECT_EQ(sim.data_of(p), run.data_of(p));
}

// --- fill-message (full program) semantics ------------------------------------

TEST(EdgeCases, FillMessagesRaiseHWithoutChangingResults) {
    algo::RandomRoutingProgram lean(64, {2, 0, 5}, 7, 0, 0);
    algo::RandomRoutingProgram full(64, {2, 0, 5}, 7, 0, 4);
    DbspMachine machine(AccessFunction::polynomial(0.5));
    const auto r_lean = machine.run(lean);
    const auto r_full = machine.run(full);
    EXPECT_EQ(r_full.supersteps[0].h, 5u);
    EXPECT_EQ(r_lean.supersteps[0].h, 1u);
    for (std::uint64_t p = 0; p < 64; ++p) {
        EXPECT_EQ(r_lean.data_of(p)[0], r_full.data_of(p)[0]);
    }
}

TEST(EdgeCases, FullProgramSimulatesEquivalently) {
    algo::RandomRoutingProgram direct_prog(32, {1, 3, 0}, 8, 2, 3);
    DbspMachine machine(AccessFunction::logarithmic());
    const auto direct = machine.run(direct_prog);

    algo::RandomRoutingProgram sim_prog(32, {1, 3, 0}, 8, 2, 3);
    auto smoothed = core::smooth(
        sim_prog, core::hmm_label_set(AccessFunction::logarithmic(),
                                      sim_prog.context_words(), 32));
    const auto sim = core::HmmSimulator(AccessFunction::logarithmic()).simulate(*smoothed);
    for (std::uint64_t p = 0; p < 32; ++p) {
        ASSERT_EQ(sim.data_of(p), direct.data_of(p));
    }
}

// --- self-simulation edge cases ------------------------------------------------

TEST(EdgeCases, SelfSimWithVPrimeEqualsOneMatchesHmmStyleCosting) {
    // v' = 1 runs everything as one local run on a single host HMM.
    algo::RandomRoutingProgram prog(32, {2, 4, 0}, 9);
    const core::SelfSimulator sim(AccessFunction::polynomial(0.5), 1);
    const auto host = sim.simulate(prog);
    EXPECT_EQ(host.global_supersteps, 0u);
    EXPECT_EQ(host.local_runs, 1u);
    EXPECT_GT(host.host_time, 0.0);
}

TEST(EdgeCases, SelfSimPrefixSumAllHostSizes) {
    SplitMix64 rng(10);
    std::vector<Word> in(32);
    for (auto& x : in) x = rng.next_below(100);
    const auto expected = algo::serial_exclusive_prefix(in);
    for (std::uint64_t vp : {1u, 2u, 8u, 32u}) {
        algo::PrefixSumProgram prog(in);
        const core::SelfSimulator sim(AccessFunction::logarithmic(), vp);
        const auto host = sim.simulate(prog);
        for (std::uint64_t p = 0; p < 32; ++p) {
            ASSERT_EQ(host.data_of(p)[0], expected[p]) << "vp=" << vp;
        }
    }
}

// --- smoothing edge cases -------------------------------------------------------

TEST(EdgeCases, SmoothingSingleProcessorMachine) {
    algo::BroadcastProgram prog(1, 9);
    auto smoothed = core::smooth(prog, core::full_label_set(1));
    EXPECT_TRUE(core::is_smooth(*smoothed, core::full_label_set(1)));
    DbspMachine machine(AccessFunction::logarithmic());
    const auto run = machine.run(*smoothed);
    EXPECT_EQ(run.data_of(0)[0], 9u);
}

TEST(EdgeCases, LabelSetsShrinkWithLargerC2) {
    const auto f = AccessFunction::polynomial(0.5);
    const auto tight = core::hmm_label_set(f, 16, 1 << 12, 0.75);
    const auto loose = core::hmm_label_set(f, 16, 1 << 12, 0.25);
    EXPECT_GE(tight.size(), loose.size());
}

TEST(EdgeCases, BtLabelSetDegenerateSmallMachine) {
    for (std::uint64_t v : {1u, 2u, 4u}) {
        const auto labels =
            core::bt_label_set(AccessFunction::logarithmic(), 8, v);
        EXPECT_EQ(labels.front(), 0u);
        EXPECT_EQ(labels.back(), ilog2(v));
    }
}

}  // namespace
}  // namespace dbsp
