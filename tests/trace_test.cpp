#include <gtest/gtest.h>

#include <complex>
#include <cstdlib>
#include <memory>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "algos/fft_recursive.hpp"
#include "algos/permutation.hpp"
#include "bt/machine.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/self_simulator.hpp"
#include "core/smoothing.hpp"
#include "hmm/machine.hpp"
#include "model/dbsp_machine.hpp"
#include "trace/aggregate.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/sink.hpp"
#include "util/bits.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dbsp {
namespace {

using model::AccessFunction;
using model::Word;

/// The paper's case-study access functions (same set as bench/common.hpp).
std::vector<AccessFunction> case_study_functions() {
    return {AccessFunction::polynomial(0.35), AccessFunction::polynomial(0.5),
            AccessFunction::logarithmic()};
}

std::unique_ptr<algo::BitonicSortProgram> make_sort_program(std::uint64_t v,
                                                            std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::vector<Word> keys(v);
    for (auto& k : keys) k = rng.next();
    return std::make_unique<algo::BitonicSortProgram>(keys);
}

std::unique_ptr<algo::FftRecursiveProgram> make_fft_program(std::uint64_t v,
                                                            std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::vector<std::complex<double>> x(v);
    for (auto& c : x) c = {rng.next_double() - 0.5, rng.next_double() - 0.5};
    return std::make_unique<algo::FftRecursiveProgram>(x);
}

bool has_dummy_step(const model::Program& program) {
    for (model::StepIndex s = 0; s < program.num_supersteps(); ++s) {
        if (program.is_dummy_step(s)) return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Machine level: tracing never perturbs the charged cost, and what the sink
// attributes through every kind of charge event equals the machine's own
// counters.
// ---------------------------------------------------------------------------

TEST(TraceSink, HmmMachineAttributionMatchesCounters) {
    for (const auto& f : case_study_functions()) {
        hmm::Machine traced(f, 4096);
        hmm::Machine untraced(f, 4096);
        trace::AggregateSink sink;
        traced.set_trace(&sink);

        // Per-word accesses go through read_traced/write_traced on the traced
        // machine and the hook-free read/write on the untraced one — the
        // charged streams must be identical (the simulators select the path
        // the same way).
        const auto workload = [](hmm::Machine& m, bool use_traced) {
            SplitMix64 rng(99);
            for (int i = 0; i < 200; ++i) {
                const model::Addr x = rng.next_below(4096);
                if (use_traced) {
                    m.write_traced(x, rng.next());
                    (void)m.read_traced(x / 2 + 1);
                } else {
                    m.write(x, rng.next());
                    (void)m.read(x / 2 + 1);
                }
            }
            std::vector<Word> buf(64);
            m.read_range(100, buf);
            m.write_range(700, buf);
            m.swap_blocks(0, 2048, 512);
            m.copy_block(64, 1024, 128);
            m.charge_range(10, 300);
            m.charge(7.0);
        };
        workload(traced, true);
        workload(untraced, false);

        // Tracing never perturbs the charge stream...
        EXPECT_EQ(traced.cost(), untraced.cost()) << f.name();
        // ...every touched word is attributed to a level exactly once...
        EXPECT_EQ(sink.attributed_words(), traced.words_touched()) << f.name();
        // ...and the buckets re-add the same charges, so only roundoff differs.
        EXPECT_NEAR(sink.attributed_cost(), traced.cost(), 1e-9 * traced.cost()) << f.name();
        EXPECT_EQ(sink.levels().at(trace::kNoLevel).cost, 7.0) << f.name();
    }
}

TEST(TraceSink, BtMachineAttributionMatchesCounters) {
    for (const auto& f : case_study_functions()) {
        bt::Machine traced(f, 4096);
        bt::Machine untraced(f, 4096);
        trace::AggregateSink sink;
        traced.set_trace(&sink);

        const auto workload = [](bt::Machine& m) {
            SplitMix64 rng(7);
            for (int i = 0; i < 200; ++i) {
                const model::Addr x = rng.next_below(4096);
                m.write(x, rng.next());
                (void)m.read(x / 3 + 2);
            }
            std::vector<Word> buf(96);
            m.read_range(40, buf);
            m.write_range(900, buf);
            m.block_copy(0, 2048, 512);
            m.block_copy(1500, 8, 64);
            m.charge(3.0);
        };
        workload(traced);
        workload(untraced);

        EXPECT_EQ(traced.cost(), untraced.cost()) << f.name();
        EXPECT_EQ(sink.block_transfers(), traced.block_transfers());
        EXPECT_EQ(sink.block_transfers(), 2u);
        EXPECT_EQ(sink.transfer_volume(), 512u + 64u);
        EXPECT_NEAR(sink.attributed_cost(), traced.cost(), 1e-9 * traced.cost()) << f.name();
    }
}

// ---------------------------------------------------------------------------
// End to end: for every case-study access function, attaching the tracer
// does not change the charged cost bits, the sink's attributed counts equal
// the executor's counters exactly, and its attributed cost matches the
// charged cost to roundoff.
// ---------------------------------------------------------------------------

TEST(TraceTotals, HmmSimulationMatchesChargedCost) {
    const std::uint64_t v = 64;
    for (const auto& f : case_study_functions()) {
        auto prog = make_sort_program(v, 11);
        auto smoothed = core::smooth(*prog, core::hmm_label_set(f, prog->context_words(), v));

        trace::AggregateSink sink;
        core::HmmSimulator::Options options;
        options.trace = &sink;
        const auto traced = core::HmmSimulator(f, options).simulate(*smoothed);

        auto prog2 = make_sort_program(v, 11);
        auto smoothed2 =
            core::smooth(*prog2, core::hmm_label_set(f, prog2->context_words(), v));
        const auto untraced = core::HmmSimulator(f).simulate(*smoothed2);

        EXPECT_EQ(sink.attributed_words(), traced.words_touched) << f.name();
        EXPECT_NEAR(sink.attributed_cost(), traced.hmm_cost, 1e-9 * traced.hmm_cost)
            << f.name();
        EXPECT_EQ(traced.hmm_cost, untraced.hmm_cost) << f.name();
    }
}

TEST(TraceTotals, BtSimulationMatchesChargedCost) {
    const std::uint64_t v = 64;
    for (const auto& f : case_study_functions()) {
        auto prog = make_sort_program(v, 13);
        auto smoothed = core::smooth(*prog, core::bt_label_set(f, prog->context_words(), v));

        trace::AggregateSink sink;
        core::BtSimulator::Options options;
        options.trace = &sink;
        const auto traced = core::BtSimulator(f, options).simulate(*smoothed);

        auto prog2 = make_sort_program(v, 13);
        auto smoothed2 =
            core::smooth(*prog2, core::bt_label_set(f, prog2->context_words(), v));
        const auto untraced = core::BtSimulator(f).simulate(*smoothed2);

        EXPECT_EQ(sink.block_transfers(), traced.block_transfers) << f.name();
        EXPECT_NEAR(sink.attributed_cost(), traced.bt_cost, 1e-9 * traced.bt_cost)
            << f.name();
        EXPECT_EQ(traced.bt_cost, untraced.bt_cost) << f.name();
    }
}

TEST(TraceTotals, BtRationalPermutationDeliveryMatchesChargedCost) {
    // FFT-rec declares transpose supersteps, so the rational-permutation
    // delivery path (kDeliverTranspose) is exercised. (FftRecursiveProgram
    // needs log v a power of two, hence v = 16.)
    const std::uint64_t v = 16;
    for (const auto& f : case_study_functions()) {
        auto prog = make_fft_program(v, 17);
        auto smoothed = core::smooth(*prog, core::bt_label_set(f, prog->context_words(), v));

        trace::AggregateSink sink;
        core::BtSimulator::Options options;
        options.use_rational_permutations = true;
        options.trace = &sink;
        const auto res = core::BtSimulator(f, options).simulate(*smoothed);

        EXPECT_EQ(sink.block_transfers(), res.block_transfers) << f.name();
        EXPECT_NEAR(sink.attributed_cost(), res.bt_cost, 1e-9 * res.bt_cost) << f.name();
        ASSERT_GT(res.transpose_invocations, 0u) << f.name();
        EXPECT_GT(sink.phase_cost(trace::Phase::kDeliverTranspose), 0.0) << f.name();
    }
}

TEST(TraceTotals, DirectDbspRunMatchesChargedTime) {
    const std::uint64_t v = 64;
    for (const auto& f : case_study_functions()) {
        auto prog = make_sort_program(v, 19);
        trace::AggregateSink sink;
        model::DbspMachine machine(f);
        machine.set_trace(&sink);
        const auto result = machine.run(*prog);

        auto prog2 = make_sort_program(v, 19);
        const auto plain = model::DbspMachine(f).run(*prog2);

        EXPECT_EQ(result.time, plain.time) << f.name();
        // Supersteps are the only direct-run events: everything is attributed
        // to kSuperstep, one scope per superstep run (per-label buckets
        // reassociate, hence the tolerance).
        std::uint64_t supersteps = 0;
        for (const auto& [key, stats] : sink.phases()) {
            EXPECT_EQ(key.phase, trace::Phase::kSuperstep);
            supersteps += stats.scopes;
        }
        EXPECT_EQ(supersteps, result.supersteps.size()) << f.name();
        EXPECT_NEAR(sink.attributed_cost(), result.time, 1e-9 * result.time) << f.name();
        EXPECT_NEAR(sink.phase_cost(trace::Phase::kSuperstep), sink.attributed_cost(),
                    1e-12 * result.time);
    }
}

TEST(TraceTotals, SelfSimulationMatchesHostTime) {
    const std::uint64_t v = 64;
    std::vector<unsigned> labels;
    for (unsigned l = 0; l <= ilog2(v); ++l) labels.push_back(ilog2(v) - l);
    for (const auto& f : case_study_functions()) {
        for (std::uint64_t vp : {1ull, 8ull, 64ull}) {
            algo::RandomRoutingProgram prog(v, labels, 23);
            trace::AggregateSink sink;
            core::SelfSimulator sim(f, vp);
            sim.set_trace(&sink);
            const auto host = sim.simulate(prog);

            algo::RandomRoutingProgram prog2(v, labels, 23);
            const auto plain = core::SelfSimulator(f, vp).simulate(prog2);

            // Unit-op charges only: no words, so the cost is the audit.
            EXPECT_NEAR(sink.attributed_cost(), host.host_time, 1e-9 * host.host_time)
                << f.name() << " v'=" << vp;
            EXPECT_EQ(host.host_time, plain.host_time) << f.name() << " v'=" << vp;
        }
    }
}

TEST(TraceTotals, ReusedSinkAccumulatesEverySimulation) {
    // bench_micro reuses one sink across many simulate() calls: each run
    // adds exactly its own counts to the sink's, and its cost bits do not
    // depend on what the sink saw before.
    const auto f = AccessFunction::polynomial(0.5);
    trace::AggregateSink sink;
    core::HmmSimulator::Options options;
    options.trace = &sink;
    std::uint64_t words = 0;
    for (int rep = 0; rep < 3; ++rep) {
        auto prog = make_sort_program(64, 47);
        auto smoothed = core::smooth(*prog, core::hmm_label_set(f, prog->context_words(), 64));
        const auto res = core::HmmSimulator(f, options).simulate(*smoothed);
        words += res.words_touched;
        EXPECT_EQ(sink.attributed_words(), words) << "rep " << rep;
        EXPECT_EQ(res.hmm_cost, core::HmmSimulator(f).simulate(*smoothed).hmm_cost)
            << "rep " << rep;
    }

    trace::AggregateSink bt_sink;
    core::BtSimulator::Options bt_options;
    bt_options.trace = &bt_sink;
    std::uint64_t transfers = 0;
    for (int rep = 0; rep < 2; ++rep) {
        auto prog = make_sort_program(64, 49);
        auto smoothed = core::smooth(*prog, core::bt_label_set(f, prog->context_words(), 64));
        const auto res = core::BtSimulator(f, bt_options).simulate(*smoothed);
        transfers += res.block_transfers;
        EXPECT_EQ(bt_sink.block_transfers(), transfers) << "rep " << rep;
        EXPECT_EQ(res.bt_cost, core::BtSimulator(f).simulate(*smoothed).bt_cost)
            << "rep " << rep;
    }
}

// ---------------------------------------------------------------------------
// Attribution content.
// ---------------------------------------------------------------------------

TEST(TraceAggregate, HmmAttributionCoversSimulationPhases) {
    const std::uint64_t v = 64;
    const auto f = AccessFunction::polynomial(0.5);
    auto prog = make_sort_program(v, 29);
    auto smoothed = core::smooth(*prog, core::hmm_label_set(f, prog->context_words(), v));
    const bool smoothing_inserted_dummies = has_dummy_step(*smoothed);

    trace::AggregateSink sink;
    core::HmmSimulator::Options options;
    options.trace = &sink;
    const auto res = core::HmmSimulator(f, options).simulate(*smoothed);

    // Every unit of charge is attributed somewhere; the bucket sum re-adds
    // the same charges in per-bucket order, so it matches to roundoff.
    EXPECT_NEAR(sink.attributed_cost(), res.hmm_cost, 1e-9 * res.hmm_cost);
    EXPECT_GT(sink.phase_cost(trace::Phase::kStepExec), 0.0);
    EXPECT_GT(sink.phase_cost(trace::Phase::kContextMove), 0.0);
    EXPECT_GT(sink.phase_cost(trace::Phase::kDeliver), 0.0);
    EXPECT_EQ(sink.phase_cost(trace::Phase::kDummyStep) > 0.0, smoothing_inserted_dummies);
    EXPECT_GT(sink.message_count(), 0u);
    EXPECT_FALSE(sink.levels().empty());

    // Charges land across several hierarchy levels, and a cheap level is hit:
    // the simulation keeps the active cluster at the top of memory.
    EXPECT_GE(sink.levels().size(), 3u);
    EXPECT_LE(sink.levels().begin()->first, 4u);

    // The human-readable report mentions every active phase.
    const std::string report = sink.to_string(res.hmm_cost);
    EXPECT_NE(report.find("step-exec"), std::string::npos);
    EXPECT_NE(report.find("context-move"), std::string::npos);
    EXPECT_NE(report.find("deliver"), std::string::npos);
}

TEST(TraceAggregate, SelfSimulationPhasesArePartitioned) {
    const std::uint64_t v = 64;
    const auto f = AccessFunction::logarithmic();
    std::vector<unsigned> labels = {0, 6, 6, 0, 6, 3};
    algo::RandomRoutingProgram prog(v, labels, 31);
    trace::AggregateSink sink;
    core::SelfSimulator sim(f, 8);
    sim.set_trace(&sink);
    const auto host = sim.simulate(prog);

    EXPECT_NEAR(sink.attributed_cost(), host.host_time, 1e-9 * host.host_time);
    EXPECT_GT(sink.phase_cost(trace::Phase::kLocalRun), 0.0);
    EXPECT_GT(sink.phase_cost(trace::Phase::kGlobalStep), 0.0);
    // Local runs + global supersteps partition the host time.
    EXPECT_NEAR(sink.phase_cost(trace::Phase::kLocalRun) +
                    sink.phase_cost(trace::Phase::kGlobalStep),
                host.host_time, 1e-9 * host.host_time);
}

// ---------------------------------------------------------------------------
// Concrete sinks and fan-out.
// ---------------------------------------------------------------------------

TEST(TraceChrome, WriterRecordsScopesWithExactTotal) {
    const std::uint64_t v = 64;
    const auto f = AccessFunction::polynomial(0.35);
    auto prog = make_sort_program(v, 37);
    auto smoothed = core::smooth(*prog, core::hmm_label_set(f, prog->context_words(), v));

    trace::ChromeTraceSink sink("hmm");
    core::HmmSimulator::Options options;
    options.trace = &sink;
    const auto res = core::HmmSimulator(f, options).simulate(*smoothed);

    EXPECT_GT(sink.event_count(), 0u);
    const std::string json = sink.to_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\":\"hmm\""), std::string::npos);
    EXPECT_NE(json.find("step-exec"), std::string::npos);

    // Model time is the running sum of the charge deltas: it never decreases
    // and ends within roundoff of the charged cost (every HMM charge falls
    // inside some phase scope, so the last E event closes after it).
    double prev = 0.0;
    std::size_t stamps = 0;
    for (std::size_t at = json.find("\"ts\":"); at != std::string::npos;
         at = json.find("\"ts\":", at + 1)) {
        const double ts = std::strtod(json.c_str() + at + 5, nullptr);
        EXPECT_GE(ts, prev) << "stamp " << stamps;
        prev = ts;
        ++stamps;
    }
    EXPECT_EQ(stamps, sink.event_count());
    EXPECT_NEAR(prev, res.hmm_cost, 1e-9 * res.hmm_cost);
}

TEST(TraceMulti, FanOutKeepsEveryChildExact) {
    const std::uint64_t v = 64;
    const auto f = AccessFunction::polynomial(0.5);
    auto prog = make_sort_program(v, 41);
    auto smoothed = core::smooth(*prog, core::bt_label_set(f, prog->context_words(), v));

    trace::AggregateSink aggregate;
    trace::ChromeTraceSink chrome("bt");
    trace::MultiSink multi({&aggregate, &chrome});
    core::BtSimulator::Options options;
    options.trace = &multi;
    const auto res = core::BtSimulator(f, options).simulate(*smoothed);

    // Every child sees every event: the aggregate's counts are exact, and
    // the Chrome sink recorded one B and one E per phase scope.
    EXPECT_EQ(aggregate.block_transfers(), res.block_transfers);
    EXPECT_NEAR(aggregate.attributed_cost(), res.bt_cost, 1e-9 * res.bt_cost);
    std::uint64_t scopes = 0;
    for (const auto& [key, stats] : aggregate.phases()) scopes += stats.scopes;
    EXPECT_EQ(chrome.event_count(), 2 * scopes);
}

// ---------------------------------------------------------------------------
// Thread safety of the intended usage: one private sink per sweep point.
// ---------------------------------------------------------------------------

TEST(TraceParallel, OneSinkPerSweepPointIsExactUnderParallelFor) {
    struct Point {
        AccessFunction f;
        std::uint64_t v;
    };
    std::vector<Point> points;
    for (const auto& f : case_study_functions()) {
        for (std::uint64_t v : {16u, 64u}) points.push_back({f, v});
    }

    std::vector<double> traced_cost(points.size()), untraced_cost(points.size());
    std::vector<std::uint64_t> attributed_words(points.size()), touched(points.size());
    util::parallel_for(
        points.size(),
        [&](std::size_t i) {
            const auto& [f, v] = points[i];
            auto prog = make_sort_program(v, 43 + v);
            auto smoothed =
                core::smooth(*prog, core::hmm_label_set(f, prog->context_words(), v));
            trace::AggregateSink sink;  // private to this sweep point
            core::HmmSimulator::Options options;
            options.trace = &sink;
            const auto traced = core::HmmSimulator(f, options).simulate(*smoothed);
            traced_cost[i] = traced.hmm_cost;
            touched[i] = traced.words_touched;
            attributed_words[i] = sink.attributed_words();

            auto prog2 = make_sort_program(v, 43 + v);
            auto smoothed2 =
                core::smooth(*prog2, core::hmm_label_set(f, prog2->context_words(), v));
            untraced_cost[i] = core::HmmSimulator(f).simulate(*smoothed2).hmm_cost;
        },
        4);

    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(attributed_words[i], touched[i]) << "point " << i;
        EXPECT_EQ(traced_cost[i], untraced_cost[i]) << "point " << i;
    }
}

}  // namespace
}  // namespace dbsp
