/// Pins the exact charged-cost bits of all six executors and the exact
/// trace event streams of the four simulators that emit them on fixed
/// programs.
///
/// The charged costs are floating-point folds whose bits depend on the
/// grouping of the additions: every step execution, and every fixed-width
/// group of processors in message delivery, is folded from zero and added to
/// the machine once. A fold flattened into the machine's running total, a
/// reordered group, or a reordered trace event stream changes these bits,
/// so every expected value below is the exact double (written in %a form),
/// count, or FNV-1a digest a run produced. v covers the degenerate
/// one-processor machine, one partial delivery group and two full ones. The
/// HMM machines' bulk telemetry (the hmm.bulk_ops and hmm.bulk_words
/// registry deltas of a run) is pinned beside the cost, so a delivery path
/// that stopped issuing range accesses fails here too. A
/// deliberate change to the charging structure must re-pin these values and
/// the benchmark's golden file (benchmark/golden/seed1.json) together.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "algos/permutation.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/naive_bt_simulator.hpp"
#include "core/naive_hmm_simulator.hpp"
#include "core/self_simulator.hpp"
#include "core/smoothing.hpp"
#include "model/dbsp_machine.hpp"
#include "report/metrics.hpp"
#include "trace/sink.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dbsp {
namespace {

using model::AccessFunction;
using model::Program;
using model::Word;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

void fnv_mix(std::uint64_t& h, double x) { fnv_mix(h, std::bit_cast<std::uint64_t>(x)); }

std::uint64_t image_digest(const std::vector<std::vector<Word>>& contexts) {
    std::uint64_t h = kFnvOffset;
    for (const auto& ctx : contexts) {
        for (const Word w : ctx) fnv_mix(h, w);
    }
    return h;
}

std::string hex(double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", x);
    return buf;
}

/// Fixed programs: a bitonic sort (every label, one message per step) and a
/// routing program with two filler messages per processor per round.
std::unique_ptr<Program> make_program(const std::string& name, std::uint64_t v) {
    if (name == "bitonic") {
        SplitMix64 rng(99);
        std::vector<Word> keys(v);
        for (auto& k : keys) k = rng.next();
        return std::make_unique<algo::BitonicSortProgram>(keys);
    }
    const unsigned l = ilog2(v);
    const std::vector<unsigned> labels{0, l, l / 2, l > 0 ? l - 1 : 0, l > 0 ? 1u : 0u};
    return std::make_unique<algo::RandomRoutingProgram>(v, labels, 17, 3, 2);
}

/// Folds every event a sink receives, with all its arguments, into one FNV-1a
/// digest; phase boundaries fold their phase and label.
class DigestSink final : public trace::Sink {
public:
    std::uint64_t digest() const { return h_; }
    std::uint64_t events() const { return n_; }

    void access(model::Addr x, double cost) override {
        event(1);
        fnv_mix(h_, x);
        fnv_mix(h_, cost);
    }
    void access_range(std::span<const double> prefix, model::Addr begin,
                      model::Addr end) override {
        event(2);
        fnv_mix(h_, begin);
        fnv_mix(h_, end);
        fnv_mix(h_, prefix[end] - prefix[begin]);
    }
    void charge(double cost) override {
        event(3);
        fnv_mix(h_, cost);
    }
    void block_op(std::span<const double>, double delta, unsigned touches,
                  std::initializer_list<trace::AddrRange> ranges) override {
        event(4);
        fnv_mix(h_, delta);
        fnv_mix(h_, std::uint64_t{touches});
        for (const trace::AddrRange& r : ranges) {
            fnv_mix(h_, r.begin);
            fnv_mix(h_, r.end);
        }
    }
    void block_transfer(model::Addr src, model::Addr dst, std::uint64_t len, double latency,
                        double delta) override {
        event(5);
        fnv_mix(h_, src);
        fnv_mix(h_, dst);
        fnv_mix(h_, len);
        fnv_mix(h_, latency);
        fnv_mix(h_, delta);
    }
    void messages(std::uint64_t count) override {
        event(6);
        fnv_mix(h_, count);
    }
    void superstep(unsigned label, std::uint64_t tau, std::size_t h, double comm_arg,
                   double cost) override {
        event(7);
        fnv_mix(h_, std::uint64_t{label});
        fnv_mix(h_, tau);
        fnv_mix(h_, std::uint64_t{h});
        fnv_mix(h_, comm_arg);
        fnv_mix(h_, cost);
    }

    void phase_begin(trace::Phase phase, unsigned label) override {
        event(8);
        fnv_mix(h_, std::uint64_t{static_cast<unsigned>(phase)});
        fnv_mix(h_, std::uint64_t{label});
    }
    void phase_end(trace::Phase phase) override {
        event(9);
        fnv_mix(h_, std::uint64_t{static_cast<unsigned>(phase)});
    }

private:
    void event(std::uint64_t tag) {
        ++n_;
        fnv_mix(h_, tag);
    }
    std::uint64_t h_ = kFnvOffset;
    std::uint64_t n_ = 0;
};

/// One executor run: the charged cost, the executor's word/transfer counter
/// (words_touched for the HMM simulators, block_transfers for the BT ones, 0
/// for the direct machine and the self-simulator), the final image digest,
/// the run's hmm.bulk_ops / hmm.bulk_words registry deltas, and — when
/// traced — the event digest and count.
struct Outcome {
    double cost = 0.0;
    std::uint64_t count = 0;
    std::uint64_t image = 0;
    std::uint64_t bulk_ops = 0;
    std::uint64_t bulk_words = 0;
    std::uint64_t events = 0;
    std::uint64_t event_digest = 0;
};

Outcome run(const std::string& executor, const std::string& program_name, std::uint64_t v,
            bool traced) {
    const AccessFunction f = AccessFunction::polynomial(0.5);
    const auto program = make_program(program_name, v);
    const std::size_t mu = program->layout().context_words();
    DigestSink sink;
    trace::Sink* const trace = traced ? &sink : nullptr;
    auto& bulk_ops = report::metric_counter("hmm.bulk_ops");
    auto& bulk_words = report::metric_counter("hmm.bulk_words");
    const std::uint64_t ops0 = bulk_ops.value();
    const std::uint64_t words0 = bulk_words.value();
    Outcome out;
    if (executor == "direct") {
        model::DbspMachine machine(f);
        machine.set_trace(trace);
        const auto r = machine.run(*program);
        out = {r.time, 0, image_digest(r.contexts)};
    } else if (executor == "hmm") {
        auto smoothed = core::smooth(*program, core::hmm_label_set(f, mu, v));
        core::HmmSimulator::Options opt;
        opt.trace = trace;
        const auto r = core::HmmSimulator(f, opt).simulate(*smoothed);
        out = {r.hmm_cost, r.words_touched, image_digest(r.contexts)};
    } else if (executor == "naive") {
        core::NaiveHmmSimulator::Options opt;
        opt.trace = trace;
        const auto r = core::NaiveHmmSimulator(f, opt).simulate(*program);
        out = {r.hmm_cost, r.words_touched, image_digest(r.contexts)};
    } else if (executor == "naive-bt") {
        const auto r = core::NaiveBtSimulator(f).simulate(*program);
        out = {r.bt_cost, r.block_transfers, image_digest(r.contexts)};
    } else if (executor == "self") {
        core::SelfSimulator sim(f, std::max<std::uint64_t>(1, v / 4));
        sim.set_trace(trace);
        const auto r = sim.simulate(*program);
        out = {r.host_time, 0, image_digest(r.contexts)};
    } else {
        auto smoothed = core::smooth(*program, core::bt_label_set(f, mu, v));
        core::BtSimulator::Options opt;
        opt.trace = trace;
        const auto r = core::BtSimulator(f, opt).simulate(*smoothed);
        out = {r.bt_cost, r.block_transfers, image_digest(r.contexts)};
    }
    // Every machine of the run has published its telemetry by now: the
    // simulators' machines are gone.
    out.bulk_ops = bulk_ops.value() - ops0;
    out.bulk_words = bulk_words.value() - words0;
    if (traced) {
        out.events = sink.events();
        out.event_digest = sink.digest();
    }
    return out;
}

struct CostPin {
    const char* executor;
    const char* program;
    std::uint64_t v;
    double cost;
    std::uint64_t count;
    std::uint64_t image;
    std::uint64_t bulk_ops;
    std::uint64_t bulk_words;
};

// clang-format off
const CostPin kCostPins[] = {
    {"direct", "bitonic", 1, 0x1p+0, 0, 0xb0b1d307e842357aull, 0, 0},
    {"direct", "bitonic", 32, 0x1.b3ae7628bb239p+7, 0, 0x440751ed828458a0ull, 0, 0},
    {"direct", "bitonic", 128, 0x1.e6e48c62ca90dp+8, 0, 0xbcf47f5e9d477d22ull, 0, 0},
    {"direct", "routing", 1, 0x1.06b6649df889ep+7, 0, 0xda941a32f506d8a3ull, 0, 0},
    {"direct", "routing", 32, 0x1.0aa499dc634f6p+8, 0, 0x6a420cfc65d0a5a3ull, 0, 0},
    {"direct", "routing", 128, 0x1.9f67da2f3335ep+8, 0, 0x2cfce1e6782724a3ull, 0, 0},
    {"hmm", "bitonic", 1, 0x1.6a09e667f3bccp+1, 2, 0xb0b1d307e842357aull, 0, 0},
    {"hmm", "bitonic", 32, 0x1.0e2b741e588fdp+18, 49864, 0x440751ed828458a0ull, 1882, 42120},
    {"hmm", "bitonic", 128, 0x1.79fe66bbe7062p+21, 429256, 0xbcf47f5e9d477d22ull, 15242, 370632},
    {"hmm", "routing", 1, 0x1.b803838e1241bp+9, 249, 0xda941a32f506d8a3ull, 20, 90},
    {"hmm", "routing", 32, 0x1.c53f195ace831p+18, 50368, 0x6a420cfc65d0a5a3ull, 1060, 45216},
    {"hmm", "routing", 128, 0x1.5b3cf1c5e3f0cp+21, 225416, 0x2cfce1e6782724a3ull, 4424, 204552},
    {"naive", "bitonic", 1, 0x1.6a09e667f3bccp+1, 2, 0xb0b1d307e842357aull, 0, 0},
    {"naive", "bitonic", 32, 0x1.e3dcef25054ffp+16, 10624, 0x440751ed828458a0ull, 960, 2880},
    {"naive", "bitonic", 128, 0x1.bb69cd64a96a1p+20, 79104, 0xbcf47f5e9d477d22ull, 7168, 21504},
    {"naive", "routing", 1, 0x1.b803838e1241bp+9, 249, 0xda941a32f506d8a3ull, 20, 90},
    {"naive", "routing", 32, 0x1.119fa206382bp+17, 7968, 0x6a420cfc65d0a5a3ull, 640, 2880},
    {"naive", "routing", 128, 0x1.0f1450b11b75dp+20, 31872, 0x2cfce1e6782724a3ull, 2560, 11520},
    {"bt", "bitonic", 1, 0x1.21af731b0a1ecp+9, 9, 0xb0b1d307e842357aull, 0, 0},
    {"bt", "bitonic", 32, 0x1.667d6d560167p+20, 10285, 0x2401f58b847e07a8ull, 0, 0},
    {"bt", "bitonic", 128, 0x1.6c9a13c58faf9p+23, 79277, 0x31430736cd279192ull, 0, 0},
    {"bt", "routing", 1, 0x1.947d69c7dd8f2p+13, 115, 0x0d0afdb2cc584963ull, 0, 0},
    {"bt", "routing", 32, 0x1.daef1ac415522p+19, 5747, 0x39f9b9d53fbe5623ull, 0, 0},
    {"bt", "routing", 128, 0x1.2795fa16c762dp+22, 27513, 0x500aaa4cbcc6aee3ull, 0, 0},
    {"naive-bt", "bitonic", 1, 0x1.03f81f636b8p+4, 0, 0xb0b1d307e842357aull, 0, 0},
    {"naive-bt", "bitonic", 32, 0x1.31b34acbad095p+17, 0, 0x440751ed828458a0ull, 0, 0},
    {"naive-bt", "bitonic", 128, 0x1.f5265820afc37p+20, 0, 0xbcf47f5e9d477d22ull, 0, 0},
    {"naive-bt", "routing", 1, 0x1.77d652b017d55p+11, 0, 0xda941a32f506d8a3ull, 0, 0},
    {"naive-bt", "routing", 32, 0x1.4b65d50a5496cp+17, 0, 0x6a420cfc65d0a5a3ull, 0, 0},
    {"naive-bt", "routing", 128, 0x1.29489880736d8p+20, 0, 0x2cfce1e6782724a3ull, 0, 0},
    {"self", "bitonic", 1, 0x1.ea09e667f3bccp+1, 0, 0xb0b1d307e842357aull, 0, 0},
    {"self", "bitonic", 32, 0x1.343a10e6823c2p+14, 0, 0xbbb599fe13348700ull, 1920, 37440},
    {"self", "bitonic", 128, 0x1.15a0d197f5df6p+15, 0, 0x09af17600347dc12ull, 13888, 263424},
    {"self", "routing", 1, 0x1.b883838e1241bp+9, 0, 0xda941a32f506d8a3ull, 20, 90},
    {"self", "routing", 32, 0x1.9ff4e5f5710ffp+14, 0, 0x6a420cfc65d0a5a3ull, 1024, 35136},
    {"self", "routing", 128, 0x1.a94119fa9e0e6p+14, 0, 0x2cfce1e6782724a3ull, 4096, 140544},
};
// clang-format on

TEST(CostPin, ChargedCostsMatchPinnedBits) {
    for (const CostPin& pin : kCostPins) {
        const Outcome got = run(pin.executor, pin.program, pin.v, false);
        const std::string what =
            std::string(pin.executor) + "/" + pin.program + "/v" + std::to_string(pin.v);
        EXPECT_EQ(hex(got.cost), hex(pin.cost)) << what;
        EXPECT_EQ(got.count, pin.count) << what;
        EXPECT_EQ(got.image, pin.image) << what;
        EXPECT_EQ(got.bulk_ops, pin.bulk_ops) << what;
        EXPECT_EQ(got.bulk_words, pin.bulk_words) << what;
    }
}

struct StreamPin {
    const char* executor;
    const char* program;
    std::uint64_t v;
    std::uint64_t events;
    std::uint64_t digest;
};

// clang-format off
const StreamPin kStreamPins[] = {
    {"hmm", "bitonic", 1, 8, 0x37541972e02516baull},
    {"hmm", "bitonic", 32, 13195, 0xc9a0748865aa0e4eull},
    {"hmm", "bitonic", 128, 103787, 0xf603196efbaeb48aull},
    {"hmm", "routing", 1, 215, 0x118a2c496d40818bull},
    {"hmm", "routing", 32, 7824, 0xf74a4c317d0412faull},
    {"hmm", "routing", 128, 32709, 0xae1e9bc9181d0389ull},
    {"naive", "bitonic", 1, 3, 0x7b5cd0c27aa56a20ull},
    {"naive", "bitonic", 32, 9216, 0xdd09e94692c60cdaull},
    {"naive", "bitonic", 128, 68480, 0x924bd9423ea1dec3ull},
    {"naive", "routing", 1, 185, 0xc828b7cbf1135370ull},
    {"naive", "routing", 32, 5920, 0x99f9f7365cce5872ull},
    {"naive", "routing", 128, 23680, 0x43f953c75fa014e7ull},
    {"bt", "bitonic", 1, 50, 0xabb646a9002a3e88ull},
    {"bt", "bitonic", 32, 108380, 0xe6886fd9a99d44c2ull},
    {"bt", "bitonic", 128, 853916, 0x40ca0d0011912b92ull},
    {"bt", "routing", 1, 1292, 0x894cc90f2b8c3908ull},
    {"bt", "routing", 32, 75340, 0xe1ae7fe0d3609c88ull},
    {"bt", "routing", 128, 356229, 0x69bc13c5a54c69fcull},
    {"self", "bitonic", 1, 3, 0x6dbe3d3964c7f289ull},
    {"self", "bitonic", 32, 54, 0x5b2e4debcf80f019ull},
    {"self", "bitonic", 128, 114, 0xa58dcbb0860c8109ull},
    {"self", "routing", 1, 3, 0xa75efae6f59114e4ull},
    {"self", "routing", 32, 30, 0xd96ec0b4fab46795ull},
    {"self", "routing", 128, 30, 0xa3974a80826c53afull},
};
// clang-format on

TEST(CostPin, TraceEventStreamsMatchPinnedDigests) {
    for (const StreamPin& pin : kStreamPins) {
        const Outcome got = run(pin.executor, pin.program, pin.v, true);
        const std::string what =
            std::string(pin.executor) + "/" + pin.program + "/v" + std::to_string(pin.v);
        EXPECT_EQ(got.events, pin.events) << what;
        EXPECT_EQ(got.event_digest, pin.digest) << what;
        // Tracing only observes: the traced run charges the untraced bits.
        const Outcome plain = run(pin.executor, pin.program, pin.v, false);
        EXPECT_EQ(hex(got.cost), hex(plain.cost)) << what;
        EXPECT_EQ(got.count, plain.count) << what;
        EXPECT_EQ(got.image, plain.image) << what;
    }
}

}  // namespace
}  // namespace dbsp
