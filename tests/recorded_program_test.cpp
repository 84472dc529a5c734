#include <gtest/gtest.h>

#include <complex>

#include "algos/bitonic_sort.hpp"
#include "algos/fft_direct.hpp"
#include "algos/permutation.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "model/dbsp_machine.hpp"
#include "model/recorded_program.hpp"
#include "util/rng.hpp"
#include "workloads/collectives.hpp"

namespace dbsp::model {
namespace {

std::uint64_t total_messages(const Trace& trace) {
    std::uint64_t n = 0;
    for (const auto& step : trace.events) {
        for (const auto& ev : step) n += ev.messages.size();
    }
    return n;
}

std::uint64_t total_ops(const Trace& trace) {
    std::uint64_t n = 0;
    for (const auto& step : trace.events) {
        for (const auto& ev : step) n += ev.ops;
    }
    return n;
}

TEST(Trace, CapturesShapeOfBroadcast) {
    algo::BroadcastProgram prog(16, 7);
    const Trace trace = record(prog);
    EXPECT_EQ(trace.processors, 16u);
    EXPECT_EQ(trace.labels.size(), prog.num_supersteps());
    // Binomial broadcast: 2^s messages in superstep s.
    for (std::size_t s = 0; s + 1 < trace.labels.size(); ++s) {
        std::size_t sent = 0;
        for (const auto& ev : trace.events[s]) sent += ev.messages.size();
        EXPECT_EQ(sent, std::size_t{1} << s) << "superstep " << s;
    }
    EXPECT_EQ(total_messages(trace), 15u);
}

TEST(Trace, TotalsMatchDirectRunStats) {
    SplitMix64 rng(5);
    std::vector<Word> keys(64);
    for (auto& k : keys) k = rng.next();
    algo::BitonicSortProgram prog(keys);
    const Trace trace = record(prog);
    // Each of the 21 compare-exchange supersteps sends 64 messages.
    EXPECT_EQ(total_messages(trace), 64u * 21u);
    EXPECT_GT(total_ops(trace), 0u);
}

TEST(RecordedProgram, ReplayHasIdenticalCostProfile) {
    algo::RandomRoutingProgram prog(64, {0, 3, 5, 2}, 9);
    DbspMachine machine(AccessFunction::polynomial(0.5));
    const auto original = machine.run(prog);

    algo::RandomRoutingProgram prog2(64, {0, 3, 5, 2}, 9);
    RecordedProgram replay(record(prog2));
    const auto replayed = machine.run(replay);

    ASSERT_EQ(replayed.supersteps.size(), original.supersteps.size());
    for (std::size_t s = 0; s < original.supersteps.size(); ++s) {
        EXPECT_EQ(replayed.supersteps[s].label, original.supersteps[s].label);
        EXPECT_EQ(replayed.supersteps[s].h, original.supersteps[s].h);
        // comm_arg scales with mu, which differs between the original and
        // the replay's 2-word context; the cluster size must agree.
        EXPECT_DOUBLE_EQ(
            replayed.supersteps[s].comm_arg / static_cast<double>(replay.context_words()),
            original.supersteps[s].comm_arg / static_cast<double>(prog.context_words()));
    }
}

TEST(RecordedProgram, ReplaySimulatesEquivalentlyOnHmm) {
    SplitMix64 rng(6);
    std::vector<std::complex<double>> x(64);
    for (auto& c : x) c = {rng.next_double(), rng.next_double()};
    algo::FftDirectProgram prog(x);
    RecordedProgram replay(record(prog));

    const auto f = AccessFunction::logarithmic();
    DbspMachine machine(f);
    const auto direct = machine.run(replay);

    algo::FftDirectProgram prog2(x);
    RecordedProgram replay2(record(prog2));
    auto smoothed = core::smooth(replay2, core::hmm_label_set(f, replay2.context_words(), 64));
    const auto simulated = core::HmmSimulator(f).simulate(*smoothed);
    for (std::uint64_t p = 0; p < 64; ++p) {
        ASSERT_EQ(simulated.data_of(p), direct.data_of(p)) << "p=" << p;
    }
}

TEST(RecordedProgram, ReplaySimulatesEquivalentlyOnBt) {
    algo::RandomRoutingProgram prog(32, {2, 0, 4, 1}, 11);
    RecordedProgram replay(record(prog));

    const auto f = AccessFunction::polynomial(0.5);
    DbspMachine machine(f);
    const auto direct = machine.run(replay);

    algo::RandomRoutingProgram prog2(32, {2, 0, 4, 1}, 11);
    RecordedProgram replay2(record(prog2));
    auto smoothed = core::smooth(replay2, core::bt_label_set(f, replay2.context_words(), 32));
    const auto simulated = core::BtSimulator(f).simulate(*smoothed);
    for (std::uint64_t p = 0; p < 32; ++p) {
        ASSERT_EQ(simulated.data_of(p), direct.data_of(p)) << "p=" << p;
    }
}

TEST(RecordedProgram, DigestDetectsPayloadDifferences) {
    // Corrupting one payload in a trace changes the destination's digest.
    algo::RandomRoutingProgram a(16, {1}, 3);
    Trace clean = record(a);
    Trace dirty = clean;
    ASSERT_FALSE(dirty.events[0][0].messages.empty());
    dirty.events[0][0].messages[0].payload0 ^= 0xDEADu;
    const ProcId dest = dirty.events[0][0].messages[0].dest;

    RecordedProgram ra(std::move(clean)), rb(std::move(dirty));
    DbspMachine machine(AccessFunction::logarithmic());
    const auto run_a = machine.run(ra);
    const auto run_b = machine.run(rb);
    EXPECT_NE(run_a.data_of(dest)[1], run_b.data_of(dest)[1]);
    EXPECT_EQ(run_a.data_of(dest)[0], run_b.data_of(dest)[0]);  // same count
}

TEST(Trace, SyntheticTraceConstruction) {
    // Build a trace by hand: a ring shift at label 0, then a sync.
    Trace trace;
    trace.processors = 8;
    trace.max_messages = 1;
    trace.labels = {0, 0};
    trace.events.resize(2);
    trace.events[0].resize(8);
    trace.events[1].resize(8);
    for (ProcId p = 0; p < 8; ++p) {
        trace.events[0][p].ops = 2;
        trace.events[0][p].messages.push_back(Message{p, (p + 1) % 8, 100 + p, 0});
        trace.events[1][p].read_inbox = true;
    }
    RecordedProgram replay(std::move(trace));
    DbspMachine machine(AccessFunction::logarithmic());
    const auto run = machine.run(replay);
    EXPECT_EQ(run.supersteps[0].h, 1u);
    for (ProcId p = 0; p < 8; ++p) {
        EXPECT_EQ(run.data_of(p)[0], 1u);  // one message received
    }
}

}  // namespace
}  // namespace dbsp::model
