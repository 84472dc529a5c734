#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "algos/fft_recursive.hpp"
#include "algos/permutation.hpp"
#include "bt/machine.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_shard.hpp"
#include "core/hmm_simulator.hpp"
#include "core/self_simulator.hpp"
#include "core/smoothing.hpp"
#include "hmm/machine.hpp"
#include "model/cost_table.hpp"
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

/// Cost \p sink attributed to phase \p p, over all labels.
double phase_cost(const trace::AggregateSink& sink, trace::Phase p) {
    double c = 0.0;
    for (const auto& [key, stats] : sink.phases()) {
        if (key.phase == p) c += stats.cost;
    }
    return c;
}

/// What \p write prints to a stream, as a string.
template <class Write>
std::string capture(const Write& write) {
    char* buf = nullptr;
    std::size_t size = 0;
    std::FILE* mem = open_memstream(&buf, &size);
    if (mem == nullptr) return {};
    write(mem);
    std::fclose(mem);
    std::string s(buf, size);
    std::free(buf);
    return s;
}

// ---------------------------------------------------------------------------
// Machine level: tracing never perturbs the charged cost, and what the sink
// attributes through every kind of charge event equals the machine's own
// counters.
// ---------------------------------------------------------------------------

/// Every kind of HMM charge event. Single words go through the simulators'
/// delivery accessor, folded into its account, which merge() adds to the
/// machine; the traced instantiation also emits each word's access event.
template <bool Traced>
void hmm_workload(hmm::Machine& m) {
    core::HmmShardAccessor<Traced> words(m, m.capacity());
    words.select(0);
    SplitMix64 rng(99);
    for (int i = 0; i < 200; ++i) {
        const model::Addr x = rng.next_below(4096);
        words.set(x, rng.next());
        (void)words.get(x / 2 + 1);
    }
    words.merge();
    std::vector<Word> buf(64);
    m.read_range(100, buf);
    m.write_range(700, buf);
    m.swap_blocks(0, 2048, 512);
    m.copy_block(64, 1024, 128);
    m.charge_swap_blocks(10, 3000, 290);
    m.charge(7.0);
}

TEST(TraceSink, HmmMachineAttributionMatchesCounters) {
    for (const auto& f : case_study_functions()) {
        hmm::Machine traced(f, 4096);
        hmm::Machine untraced(f, 4096);
        trace::AggregateSink sink;
        traced.set_trace(&sink);

        // The traced accessor on the traced machine, the untraced one on its
        // twin: the charged streams must be identical (the simulators select
        // the instantiation the same way).
        hmm_workload<true>(traced);
        hmm_workload<false>(untraced);

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
        EXPECT_EQ(phase_cost(sink, trace::Phase::kNone), 0.0) << f.name();
        EXPECT_EQ(traced.bt_cost, untraced.bt_cost) << f.name();
    }
}

TEST(TraceTotals, BtRationalPermutationDeliveryMatchesChargedCost) {
    // FFT-rec declares transpose supersteps, so the rational-permutation
    // delivery path (kDeliverTranspose) is exercised. (FftRecursiveProgram
    // needs log v a power of two, hence v = 16.) bt_label_set relabels every
    // superstep of this program 0 at v = 16; the full label set keeps its
    // labels 0 2 1 0 2 1 0 0, so rounds run below the root and Step 4
    // rotates sibling clusters between them.
    const std::uint64_t v = 16;
    for (const auto& f : case_study_functions()) {
        for (const bool full_labels : {false, true}) {
            auto prog = make_fft_program(v, 17);
            auto smoothed = core::smooth(
                *prog, full_labels ? core::full_label_set(v)
                                   : core::bt_label_set(f, prog->context_words(), v));
            const std::string what = f.name() + (full_labels ? " full labels" : " bt labels");

            trace::AggregateSink sink;
            core::BtSimulator::Options options;
            options.use_rational_permutations = true;
            options.trace = &sink;
            const auto res = core::BtSimulator(f, options).simulate(*smoothed);

            EXPECT_EQ(sink.block_transfers(), res.block_transfers) << what;
            EXPECT_NEAR(sink.attributed_cost(), res.bt_cost, 1e-9 * res.bt_cost) << what;
            EXPECT_EQ(phase_cost(sink, trace::Phase::kNone), 0.0) << what;
            ASSERT_GT(res.transpose_invocations, 0u) << what;
            EXPECT_GT(phase_cost(sink, trace::Phase::kDeliverTranspose), 0.0) << what;
            if (full_labels) {
                EXPECT_EQ(res.transpose_invocations, 3u) << what;
                double below_root = 0.0;
                for (const auto& [key, stats] : sink.phases()) {
                    if (key.label > 0) below_root += stats.cost;
                }
                EXPECT_GT(below_root, 0.0) << what;
            }
        }
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
        EXPECT_NEAR(phase_cost(sink, trace::Phase::kSuperstep), sink.attributed_cost(),
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
    EXPECT_GT(phase_cost(sink, trace::Phase::kStepExec), 0.0);
    EXPECT_GT(phase_cost(sink, trace::Phase::kContextMove), 0.0);
    EXPECT_GT(phase_cost(sink, trace::Phase::kDeliver), 0.0);
    EXPECT_EQ(phase_cost(sink, trace::Phase::kDummyStep) > 0.0, smoothing_inserted_dummies);
    EXPECT_GT(sink.message_count(), 0u);
    EXPECT_FALSE(sink.levels().empty());

    // Charges land across several hierarchy levels, and a cheap level is hit:
    // the simulation keeps the active cluster at the top of memory.
    EXPECT_GE(sink.levels().size(), 3u);
    EXPECT_LE(sink.levels().begin()->first, 4u);

    // The human-readable report mentions every active phase.
    const std::string report =
        capture([&](std::FILE* out) { sink.print(out, res.hmm_cost); });
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
    EXPECT_GT(phase_cost(sink, trace::Phase::kLocalRun), 0.0);
    EXPECT_GT(phase_cost(sink, trace::Phase::kGlobalStep), 0.0);
    // Local runs + global supersteps partition the host time.
    EXPECT_NEAR(phase_cost(sink, trace::Phase::kLocalRun) +
                    phase_cost(sink, trace::Phase::kGlobalStep),
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
    const trace::ChromeTraceSink* const sinks[] = {&sink};
    const std::string json =
        capture([&](std::FILE* out) { trace::ChromeTraceSink::write_merged(sinks, out); });
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

/// Logs (its id, event kind) into a log shared with other sinks.
class EventLog final : public trace::Sink {
public:
    using Log = std::vector<std::pair<int, char>>;
    EventLog(int id, Log* log) : id_(id), log_(log) {}

    void access(trace::Addr, double) override { note('a'); }
    void access_range(std::span<const double>, trace::Addr, trace::Addr) override {
        note('r');
    }
    void charge(double) override { note('c'); }
    void block_op(std::span<const double>, double, unsigned,
                  std::initializer_list<trace::AddrRange>) override {
        note('o');
    }
    void block_transfer(trace::Addr, trace::Addr, std::uint64_t, double, double) override {
        note('t');
    }
    void messages(std::uint64_t) override { note('m'); }
    void superstep(unsigned, std::uint64_t, std::size_t, double, double) override {
        note('s');
    }
    void phase_begin(trace::Phase, unsigned) override { note('B'); }
    void phase_end(trace::Phase) override { note('E'); }

private:
    void note(char kind) { log_->emplace_back(id_, kind); }
    int id_;
    Log* log_;
};

TEST(TraceMulti, TargetSkipsNullAndRepeatedChildren) {
    EventLog::Log log;
    EventLog a(1, &log), b(2, &log), c(3, &log);

    trace::MultiSink empty;
    EXPECT_EQ(empty.target(), nullptr);
    trace::MultiSink nulls{nullptr, nullptr};
    EXPECT_EQ(nulls.target(), nullptr);
    // One distinct child is attached directly, not through the fan-out.
    trace::MultiSink one{nullptr, &a, &a};
    EXPECT_EQ(one.target(), &a);

    trace::MultiSink grown;
    grown.add(nullptr);
    grown.add(&c);
    grown.add(&c);
    EXPECT_EQ(grown.target(), &c);
    grown.add(&a);
    EXPECT_EQ(grown.target(), &grown);

    // Two or more: every event reaches each distinct child once, in the
    // order the children were first added.
    trace::MultiSink many{&b, nullptr, &a, &b, &c, &a};
    ASSERT_EQ(many.target(), &many);
    const double prefix[] = {0.0, 1.0, 2.0};
    many.access(1, 1.0);
    many.access_range(prefix, 0, 2);
    many.charge(1.0);
    many.block_op(prefix, 2.0, 2, {{0, 1}});
    many.block_transfer(0, 1, 1, 1.0, 2.0);
    many.messages(3);
    many.superstep(0, 1, 0, 1.0, 1.0);
    many.phase_begin(trace::Phase::kStepExec, 0);
    many.phase_end(trace::Phase::kStepExec);
    EventLog::Log want;
    for (const char kind : std::string("arcotmsBE")) {
        for (const int id : {2, 1, 3}) want.emplace_back(id, kind);
    }
    EXPECT_EQ(log, want);
}

/// Records the (address, cost bits) of every access() and nothing else, so
/// access_log reaches it through the default expansion.
class AccessRecorder final : public trace::Sink {
public:
    std::vector<std::pair<trace::Addr, std::uint64_t>> words;

    void access(trace::Addr x, double cost) override {
        words.emplace_back(x, std::bit_cast<std::uint64_t>(cost));
    }
};

/// Records each access_log event whole.
class LogRecorder final : public trace::Sink {
public:
    std::vector<std::pair<trace::Addr, std::vector<std::uint32_t>>> logs;
    std::size_t accesses = 0;

    void access(trace::Addr, double) override { ++accesses; }
    void access_log(std::span<const double>, trace::Addr base,
                    std::span<const std::uint32_t> touches) override {
        logs.emplace_back(base, std::vector<std::uint32_t>(touches.begin(), touches.end()));
    }
};

TEST(TraceSink, AccessLogDefaultIsThePerWordStream) {
    // A sink that overrides only access() sees a touch log as the per-word
    // calls the simulators made before logs were one event: f(base + i) per
    // entry, in log order, repeats included, with the cost table's bits.
    for (const AccessFunction& f : case_study_functions()) {
        const model::CostTable table(f, 4096);
        const std::vector<std::uint32_t> log{5, 5, 4, 3, 90, 0, 1, 2, 90, 63, 64, 65};
        for (const trace::Addr base : {0, 1000, 3900}) {
            AccessRecorder logged, per_word;
            logged.access_log(table.prefix(), base, log);
            for (const std::uint32_t i : log) {
                per_word.access(base + i, table.cost(base + i));
            }
            ASSERT_EQ(logged.words.size(), log.size());
            EXPECT_EQ(logged.words, per_word.words) << f.name() << " base " << base;
        }
    }
}

TEST(TraceMulti, ForwardsAccessLogToEachChildsHandler) {
    // The fan-out forwards the whole log: a child that overrides access_log
    // gets it as one event, a per-word child gets the default expansion.
    const model::CostTable table(AccessFunction::polynomial(0.5), 256);
    const std::vector<std::uint32_t> log{7, 7, 3, 40};
    LogRecorder whole;
    AccessRecorder words;
    trace::MultiSink multi{&whole, &words};
    multi.access_log(table.prefix(), 100, log);
    ASSERT_EQ(whole.logs.size(), 1u);
    EXPECT_EQ(whole.logs[0].first, 100u);
    EXPECT_EQ(whole.logs[0].second, log);
    EXPECT_EQ(whole.accesses, 0u);
    AccessRecorder want;
    for (const std::uint32_t i : log) want.access(100 + i, table.cost(100 + i));
    EXPECT_EQ(words.words, want.words);
}

// ---------------------------------------------------------------------------
// Phase observers: a traced run's phase scopes without its charge path.
// ---------------------------------------------------------------------------

/// Records phase scopes in order and counts every other event.
class ScopeRecorder final : public trace::Sink {
public:
    struct Scope {
        bool begin;
        trace::Phase phase;
        unsigned label;
        bool operator==(const Scope&) const = default;
        friend std::ostream& operator<<(std::ostream& os, const Scope& s) {
            return os << (s.begin ? "begin " : "end ") << trace::phase_name(s.phase) << '/'
                      << s.label;
        }
    };

    void access(trace::Addr, double) override { ++other_events; }
    void access_range(std::span<const double>, trace::Addr, trace::Addr) override {
        ++other_events;
    }
    void charge(double) override { ++other_events; }
    void block_op(std::span<const double>, double, unsigned,
                  std::initializer_list<trace::AddrRange>) override {
        ++other_events;
    }
    void block_transfer(trace::Addr, trace::Addr, std::uint64_t, double, double) override {
        ++other_events;
    }
    void messages(std::uint64_t) override { ++other_events; }
    void superstep(unsigned, std::uint64_t, std::size_t, double, double) override {
        ++other_events;
    }
    void phase_begin(trace::Phase phase, unsigned label) override {
        scopes.push_back({true, phase, label});
    }
    void phase_end(trace::Phase phase) override { scopes.push_back({false, phase, 0}); }

    bool opened(trace::Phase phase) const {
        return std::any_of(scopes.begin(), scopes.end(),
                           [phase](const Scope& s) { return s.begin && s.phase == phase; });
    }

    std::vector<Scope> scopes;
    std::uint64_t other_events = 0;
};

/// Every way of attaching recorders to one simulation: as the charge sink,
/// as the phase observer alone, and as both at once (two recorders).
struct ObserverRuns {
    ScopeRecorder traced, observer, both_charges, both_phases;

    /// The observer, and both recorders of the combined run, saw exactly the
    /// traced run's scopes; neither phase observer saw any other event.
    void expect_same_scopes() const {
        EXPECT_FALSE(traced.scopes.empty());
        EXPECT_GT(traced.other_events, 0u);
        EXPECT_EQ(observer.scopes, traced.scopes);
        EXPECT_EQ(observer.other_events, 0u);
        EXPECT_EQ(both_charges.scopes, traced.scopes);
        EXPECT_EQ(both_charges.other_events, traced.other_events);
        EXPECT_EQ(both_phases.scopes, traced.scopes);
        EXPECT_EQ(both_phases.other_events, 0u);
    }
};

TEST(PhaseObserver, HmmScopesMatchTracedRunOnTheUntracedPath) {
    const std::uint64_t v = 64;
    const auto f = AccessFunction::polynomial(0.5);
    auto run = [&](trace::Sink* charges, trace::Sink* phases) {
        // With every label in L, each descent of the sort's merge stages is
        // padded with dummy supersteps.
        auto prog = make_sort_program(v, 29);
        auto smoothed = core::smooth(*prog, core::full_label_set(v));
        EXPECT_TRUE(has_dummy_step(*smoothed));
        core::HmmSimulator::Options options;
        options.trace = charges;
        options.phases = phases;
        return core::HmmSimulator(f, options).simulate(*smoothed);
    };
    ObserverRuns rec;
    const auto plain = run(nullptr, nullptr);
    run(&rec.traced, nullptr);
    const auto observed = run(nullptr, &rec.observer);
    run(&rec.both_charges, &rec.both_phases);

    rec.expect_same_scopes();
    EXPECT_TRUE(rec.observer.opened(trace::Phase::kDummyStep));
    EXPECT_EQ(observed.hmm_cost, plain.hmm_cost);
    EXPECT_EQ(observed.words_touched, plain.words_touched);
    EXPECT_EQ(observed.rounds, plain.rounds);
    EXPECT_EQ(observed.contexts, plain.contexts);
}

TEST(PhaseObserver, BtScopesMatchTracedRunOnTheUntracedPath) {
    const auto f = AccessFunction::polynomial(0.5);
    // A sort smoothed over every label, so it has dummy supersteps, and a
    // transpose program (FFT-rec, log v a power of two) whose
    // rational-permutation delivery opens deliver-transpose scopes.
    struct Case {
        std::function<std::unique_ptr<model::Program>()> make;
        std::uint64_t v;
        bool rational;
        trace::Phase must_open;
    };
    const std::vector<Case> cases = {
        {[] { return make_sort_program(64, 13); }, 64, false, trace::Phase::kDummyStep},
        {[] { return make_fft_program(16, 17); }, 16, true,
         trace::Phase::kDeliverTranspose},
    };
    for (const Case& c : cases) {
        auto run = [&](trace::Sink* charges, trace::Sink* phases) {
            auto prog = c.make();
            auto smoothed = core::smooth(
                *prog, c.rational ? core::bt_label_set(f, prog->context_words(), c.v)
                                  : core::full_label_set(c.v));
            core::BtSimulator::Options options;
            options.use_rational_permutations = c.rational;
            options.trace = charges;
            options.phases = phases;
            return core::BtSimulator(f, options).simulate(*smoothed);
        };
        ObserverRuns rec;
        const auto plain = run(nullptr, nullptr);
        run(&rec.traced, nullptr);
        const auto observed = run(nullptr, &rec.observer);
        run(&rec.both_charges, &rec.both_phases);

        rec.expect_same_scopes();
        EXPECT_TRUE(rec.observer.opened(c.must_open)) << trace::phase_name(c.must_open);
        EXPECT_EQ(observed.bt_cost, plain.bt_cost);
        EXPECT_EQ(observed.transfer_volume, plain.transfer_volume);
        EXPECT_EQ(observed.block_transfers, plain.block_transfers);
        EXPECT_EQ(observed.rounds, plain.rounds);
        EXPECT_EQ(observed.transpose_invocations, plain.transpose_invocations);
        EXPECT_EQ(observed.contexts, plain.contexts);
    }
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
