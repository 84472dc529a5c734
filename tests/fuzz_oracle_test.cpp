#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "bt/machine.hpp"
#include "check/differential.hpp"
#include "check/program_gen.hpp"
#include "check/shrinker.hpp"
#include "check/trace_io.hpp"
#include "core/hmm_shard.hpp"
#include "hmm/machine.hpp"
#include "model/context_layout.hpp"
#include "model/dbsp_machine.hpp"
#include "model/recorded_program.hpp"
#include "trace/aggregate.hpp"
#include "util/rng.hpp"

namespace dbsp::check {
namespace {

using model::AccessFunction;
using model::ContextLayout;
using model::Word;

TEST(ProgramGen, DeterministicAcrossCalls) {
    const GenConfig config;
    for (std::uint64_t seed : {1ull, 7ull, 1234ull, 999983ull}) {
        const ProgramSpec a = generate_spec(config, seed);
        const ProgramSpec b = generate_spec(config, seed);
        EXPECT_EQ(serialize_spec(a), serialize_spec(b)) << "seed " << seed;
    }
    // Different seeds must not collapse onto one program.
    EXPECT_NE(serialize_spec(generate_spec(config, 1)),
              serialize_spec(generate_spec(config, 2)));
}

TEST(ProgramGen, GeneratesValidSpecs) {
    const GenConfig config;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const ProgramSpec spec = generate_spec(config, seed);
        std::string why;
        EXPECT_TRUE(spec_valid(spec, &why)) << "seed " << seed << ": " << why;
        EXPECT_FALSE(spec.describe().empty());
    }
}

TEST(ProgramGen, CoversAdversarialGeometries) {
    // The generator's whole value is edge coverage; lock in that a modest
    // seed range actually hits the geometries the oracle needs to exercise.
    const GenConfig config;
    bool tiny = false, large = false, multi_step = false;
    bool descent = false, empty_step = false, unread_inbox = false;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const ProgramSpec spec = generate_spec(config, seed);
        tiny = tiny || spec.processors == 1;
        large = large || spec.processors >= 8;
        multi_step = multi_step || spec.labels.size() >= 4;
        for (std::size_t s = 0; s + 1 < spec.labels.size(); ++s) {
            descent = descent || spec.labels[s] > spec.labels[s + 1];
        }
        for (std::size_t s = 0; s < spec.labels.size(); ++s) {
            std::uint64_t sends = 0, reads = 0;
            for (const auto& ev : spec.events[s]) {
                sends += ev.sends.size();
                reads += ev.read_inbox ? 1 : 0;
            }
            empty_step = empty_step || sends == 0;
            // A superstep that receives but never reads leaves the inbox to
            // survive cluster scheduling — the stale-message edge case.
            unread_inbox = unread_inbox || (sends > 0 && reads == 0);
        }
    }
    EXPECT_TRUE(tiny);
    EXPECT_TRUE(large);
    EXPECT_TRUE(multi_step);
    EXPECT_TRUE(descent);
    EXPECT_TRUE(empty_step);
    EXPECT_TRUE(unread_inbox);
}

TEST(DifferentialOracle, CleanOnGeneratedPrograms) {
    const GenConfig config;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const DiffReport report = check_spec(generate_spec(config, seed));
        EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.summary();
    }
}

/// A deliberately impure program: every step() invocation stores a fresh
/// counter value, so re-running it yields a different memory image. The
/// executors require pure step callbacks; the oracle re-runs the program once
/// per mode combination, so impurity must surface as a mode-axis divergence.
class ImpureProgram final : public model::Program {
public:
    std::string name() const override { return "impure"; }
    std::uint64_t num_processors() const override { return 2; }
    std::size_t data_words() const override { return 2; }
    std::size_t max_messages() const override { return 1; }
    model::StepIndex num_supersteps() const override { return 1; }
    unsigned label(model::StepIndex) const override { return 0; }
    void init(model::ProcId, std::span<Word> data) const override {
        for (Word& w : data) w = 0;
    }
    void step(model::StepIndex, model::ProcId, model::StepContext& ctx) override {
        ctx.store(0, ++counter_);
    }

private:
    Word counter_ = 0;
};

TEST(DifferentialOracle, FlagsImpureProgramAsModeDivergence) {
    // Sensitivity check: a program whose observable state differs between two
    // runs must trip the image cross-checks — if this passes clean, the
    // oracle is comparing nothing.
    ImpureProgram program;
    const DiffReport report = check_program(program);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has_tag("direct-image-mode")) << report.summary();
}

/// Impure in cost only: charges one more op on every invocation. Must trip
/// the bit-identical cost cross-check, not the image check.
class ImpureCostProgram final : public model::Program {
public:
    std::string name() const override { return "impure-cost"; }
    std::uint64_t num_processors() const override { return 2; }
    std::size_t data_words() const override { return 2; }
    std::size_t max_messages() const override { return 1; }
    model::StepIndex num_supersteps() const override { return 1; }
    unsigned label(model::StepIndex) const override { return 0; }
    void init(model::ProcId, std::span<Word> data) const override {
        for (Word& w : data) w = 0;
    }
    void step(model::StepIndex, model::ProcId, model::StepContext& ctx) override {
        ctx.charge_ops(++calls_);
    }

private:
    std::uint64_t calls_ = 0;
};

TEST(DifferentialOracle, FlagsImpureCostAsCostDivergence) {
    ImpureCostProgram program;
    const DiffReport report = check_program(program);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has_tag("direct-cost-mode")) << report.summary();
}

TEST(Shrinker, MinimizesAgainstSyntheticPredicate) {
    // A hand-built spec with one "interesting" send (payload0 == 42) buried
    // in noise. The predicate is synthetic so the expected minimum is exact:
    // every reduction pass must fire, leaving one superstep, one message,
    // D = B = 1, and the planted payload intact (zeroing it breaks the
    // predicate, so pass 5 must leave it alone).
    ProgramSpec spec;
    spec.processors = 4;
    spec.data_words = 3;
    spec.max_messages = 2;
    spec.labels = {0, 0};
    spec.events.assign(2, std::vector<ProgramSpec::Event>(4));
    spec.events[0][0].sends = {{3, 42, 7}, {1, 5, 6}};
    spec.events[0][2].sends = {{0, 9, 9}};
    spec.events[0][1].extra_ops = 3;
    spec.events[0][3].touch_data = true;
    for (auto& ev : spec.events[1]) ev.read_inbox = true;
    spec.events[1][1].sends = {{2, 8, 8}};
    ASSERT_TRUE(spec_valid(spec));

    const auto has_42 = [](const ProgramSpec& s) {
        for (const auto& step : s.events) {
            for (const auto& ev : step) {
                for (const auto& send : ev.sends) {
                    if (send.payload0 == 42) return true;
                }
            }
        }
        return false;
    };
    const ShrinkResult result = shrink_with(spec, has_42);

    ASSERT_TRUE(spec_valid(result.spec));
    EXPECT_TRUE(has_42(result.spec));
    EXPECT_EQ(result.spec.labels.size(), 1u);
    EXPECT_EQ(result.spec.total_messages(), 1u);
    EXPECT_EQ(result.spec.data_words, 1u);
    EXPECT_EQ(result.spec.max_messages, 1u);
    // The 42-send targets processor 3, so halving cannot apply: v stays 4.
    EXPECT_EQ(result.spec.processors, 4u);
    EXPECT_GT(result.accepted, 0u);
    for (const auto& step : result.spec.events) {
        for (const auto& ev : step) {
            EXPECT_EQ(ev.extra_ops, 0u);
            EXPECT_FALSE(ev.touch_data);
            EXPECT_FALSE(ev.read_inbox);
        }
    }
}

TEST(TraceIo, SpecRoundTrip) {
    const GenConfig config;
    for (std::uint64_t seed : {1ull, 17ull, 4242ull}) {
        const ProgramSpec spec = generate_spec(config, seed);
        const std::string text = serialize_spec(spec);
        ProgramSpec parsed;
        std::string error;
        ASSERT_TRUE(parse_spec(text, &parsed, &error)) << error;
        EXPECT_EQ(serialize_spec(parsed), text);
        EXPECT_EQ(parsed.processors, spec.processors);
        EXPECT_EQ(parsed.labels, spec.labels);
        EXPECT_EQ(parsed.total_messages(), spec.total_messages());
    }
}

TEST(TraceIo, TraceRoundTrip) {
    GeneratedProgram program(generate_spec(GenConfig{}, 23));
    const model::Trace trace = model::record(program);
    const std::string text = serialize_trace(trace);
    model::Trace parsed;
    std::string error;
    ASSERT_TRUE(parse_trace(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize_trace(parsed), text);

    // The replay must also be semantically identical, not just textually.
    model::RecordedProgram a(trace), b(parsed);
    model::DbspMachine machine(AccessFunction::polynomial(0.5));
    const auto ra = machine.run(a);
    const auto rb = machine.run(b);
    EXPECT_EQ(ra.time, rb.time);
    for (std::uint64_t p = 0; p < a.num_processors(); ++p) {
        EXPECT_EQ(ra.data_of(p), rb.data_of(p));
    }
}

TEST(TraceIo, RejectsMalformedInput) {
    ProgramSpec spec;
    model::Trace trace;
    Repro repro;
    std::string error;

    EXPECT_FALSE(parse_repro("", &repro, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parse_repro("garbage header\n", &repro, &error));
    EXPECT_FALSE(parse_spec("dbsp-trace v2\n", &spec, &error));  // wrong format
    EXPECT_FALSE(parse_trace("dbsp-spec v1\n", &trace, &error));

    // Truncated: valid header, missing terminator.
    const std::string good = serialize_spec(generate_spec(GenConfig{}, 3));
    const std::string truncated = good.substr(0, good.rfind("end"));
    EXPECT_FALSE(parse_spec(truncated, &spec, &error));
    EXPECT_FALSE(error.empty());

    // Out-of-range field: non-power-of-two processor count.
    EXPECT_FALSE(parse_spec("dbsp-spec v1\nv 3\nD 1\nB 1\nseed 0\nsteps 1\nlabels 0\nend\n",
                            &spec, &error));
}

/// FNV-1a of \p bytes folded into \p h, closed by a separator byte so that
/// adjacent strings cannot trade bytes without moving the digest.
std::uint64_t fold(std::uint64_t h, const std::string& bytes) {
    for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
    return (h ^ 0xffu) * 1099511628211ull;
}

TEST(TraceIo, MutatedCorpusVerdictsMatchPinnedDigest) {
    // Pins the whole text grammar, not only the happy path: the verdict,
    // the rejection message, or the canonical re-serialization of 20,000
    // mutated corpus specs (the parse fuzzer's mutation menu: truncations,
    // duplicated sections, huge and negative counts, spliced keywords), read
    // as dbsp-spec v1 and again re-headed as dbsp-trace v2. A parser or
    // writer change that moves any accepted input, message or byte moves the
    // digest; the accept counts say which format moved.
    const GenConfig config;
    std::uint64_t h = 14695981039346656037ull;
    std::uint64_t specs_accepted = 0;
    std::uint64_t traces_accepted = 0;
    for (std::uint64_t seed = 1; seed <= 20000; ++seed) {
        SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
        std::string text = serialize_spec(generate_spec(config, seed));
        const std::uint64_t mutations = 1 + rng.next_below(8);
        for (std::uint64_t k = 0; k < mutations; ++k) mutate(&text, rng);

        ProgramSpec spec;
        std::string error;
        const bool spec_ok = parse_spec(text, &spec, &error);
        h = fold(fold(h, spec_ok ? "accepted" : "rejected"),
                 spec_ok ? serialize_spec(spec) : error);

        const std::size_t at = text.find("dbsp-spec v1");
        if (at != std::string::npos) text.replace(at, 12, "dbsp-trace v2");
        model::Trace trace;
        error.clear();
        const bool trace_ok = parse_trace(text, &trace, &error);
        h = fold(fold(h, trace_ok ? "accepted" : "rejected"),
                 trace_ok ? serialize_trace(trace) : error);

        specs_accepted += spec_ok;
        traces_accepted += trace_ok;
    }
    EXPECT_EQ(specs_accepted, 650u);
    EXPECT_EQ(traces_accepted, 12u);
    EXPECT_EQ(h, 0xd62d02ca6eb1e4ebull) << std::hex << h;
}

TEST(TraceIo, NumericFieldsFollowStreamExtraction) {
    // The numeric-field grammar, case by case: an optional sign ('-' wraps
    // on unsigned fields), range-checked digits, reading stops at the first
    // non-digit, C isspace separators, '#' and blank lines skipped, and a
    // line with no keyword keeps the previous line's keyword.
    const std::string base =
        "dbsp-spec v1\nv 2\nD 1\nB 1\nsteps 1\nlabels 0\n"
        "event 0 0 3 0 0 1\nsend 1 5 6\nend\n";
    const auto edit = [&](const std::string& from, const std::string& to) {
        std::string text = base;
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return text.replace(at, from.size(), to);
    };
    const auto parse = [](const std::string& text, ProgramSpec* spec) {
        std::string error;
        return parse_spec(text, spec, &error) ? std::string() : error;
    };
    ProgramSpec spec;
    ASSERT_EQ(parse(base, &spec), "");
    const std::string canonical = serialize_spec(spec);

    ASSERT_EQ(parse(edit(" 3 ", " +7 "), &spec), "");
    EXPECT_EQ(spec.events[0][0].extra_ops, 7u);
    ASSERT_EQ(parse(edit("send 1 5", "send 1 -1"), &spec), "");
    EXPECT_EQ(spec.events[0][0].sends[0].payload0, ~Word{0});
    ASSERT_EQ(parse(edit(" 3 ", " -3 "), &spec), "");
    EXPECT_EQ(spec.events[0][0].extra_ops, ~std::uint64_t{0} - 2);
    EXPECT_EQ(parse(edit("send 1 5", "send 1 18446744073709551616"), &spec),
              "bad send line");

    // Accepted spellings of the base spec.
    std::string crlf;
    for (const char c : base) crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
    for (const std::string& text :
         {edit("event 0 0 3", "event\t0\v0 3"), crlf, edit("v 2", "v 2 trailing tokens"),
          edit("D 1", "D 1x"), edit("\nsend", "\n# comment\nsend"),
          base.substr(0, base.size() - 1)}) {
        ASSERT_EQ(parse(text, &spec), "") << text;
        EXPECT_EQ(serialize_spec(spec), canonical) << text;
    }

    // A line holding only '\v' is not skipped: it keeps the previous keyword.
    EXPECT_EQ(parse(edit("send 1 5 6\n", "send 1 5 6\n\v\n"), &spec), "missing end line");
    EXPECT_EQ(parse(edit("v 2\n", "v 2\n\v\n"), &spec), "duplicate v line");
}

TEST(ReproCorpus, AllCommittedReprosPassClean) {
    // Every file under tests/repros/ is a shrunk repro of a fixed bug; each
    // must parse and run the full differential matrix clean at head. A
    // regression flips exactly the check its filename tag names.
    const std::filesystem::path dir = DBSP_REPRO_DIR;
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    std::size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".txt") continue;
        ++count;
        Repro repro;
        std::string error;
        ASSERT_TRUE(load_repro_file(entry.path().string(), &repro, &error))
            << entry.path() << ": " << error;
        const auto program = repro.make_program();
        const DiffReport report = check_program(*program);
        EXPECT_TRUE(report.ok()) << entry.path() << "\n" << report.summary();
    }
    EXPECT_GE(count, 1u) << "repro corpus is empty";
}

TEST(FunctionalImage, ExcludesStaleWordsKeepsLiveOnes) {
    const ContextLayout layout{.data_words = 2, .max_messages = 2};
    std::vector<Word> ctx(layout.context_words(), 0);
    ctx[0] = 11;
    ctx[1] = 22;
    ctx[layout.in_count_offset()] = 1;
    ctx[layout.in_record_offset(0) + 0] = 3;  // src
    ctx[layout.in_record_offset(0) + 1] = 44;
    ctx[layout.in_record_offset(0) + 2] = 55;

    // Stale garbage beyond the live counts must not affect the image.
    std::vector<Word> noisy = ctx;
    noisy[layout.in_record_offset(1) + 1] = 999;  // beyond in_count = 1
    noisy[layout.out_record_offset(0) + 0] = 777;  // out_count = 0
    EXPECT_EQ(functional_image(ctx, layout), functional_image(noisy, layout));

    // A live record word must affect it.
    std::vector<Word> live = ctx;
    live[layout.in_record_offset(0) + 1] = 45;
    EXPECT_NE(functional_image(ctx, layout), functional_image(live, layout));

    // So must the counts themselves.
    std::vector<Word> more = ctx;
    more[layout.in_count_offset()] = 2;
    EXPECT_NE(functional_image(ctx, layout), functional_image(more, layout));
}

/// Draw an (addr, len) range biased to straddle power-of-two boundaries —
/// exactly where the HMM level breaks and BT block edges sit.
std::pair<std::uint64_t, std::size_t> boundary_range(SplitMix64& rng,
                                                     std::uint64_t capacity) {
    const unsigned k = 1 + static_cast<unsigned>(rng.next_below(12));
    const std::uint64_t boundary = std::uint64_t{1} << k;
    const std::uint64_t back = 1 + rng.next_below(std::min<std::uint64_t>(boundary, 8));
    const std::uint64_t addr = boundary - back;
    const std::size_t len =
        static_cast<std::size_t>(1 + rng.next_below(16));
    if (addr + len > capacity) return {capacity - len, len};
    return {addr, len};
}

TEST(RangeAccessFuzz, HmmRangeMatchesPerWordAtLevelBreaks) {
    // hmm::Machine documents read_range/write_range as bit-for-bit
    // cost-equivalent to ascending per-word loops. Fuzz ranges that straddle
    // the f-level breaks (power-of-two addresses), where a fused charge loop
    // is most likely to mis-split the per-cell sum.
    const std::uint64_t capacity = 1 << 12;
    for (const auto& f : {AccessFunction::polynomial(0.35), AccessFunction::polynomial(0.5),
                          AccessFunction::logarithmic()}) {
        hmm::Machine bulk(f, capacity);
        hmm::Machine word(f, capacity);
        SplitMix64 rng(0xfeedu);
        for (int trial = 0; trial < 200; ++trial) {
            const auto [addr, len] = boundary_range(rng, capacity);
            std::vector<Word> values(len);
            for (auto& w : values) w = rng.next();

            bulk.write_range(addr, values);
            for (std::size_t i = 0; i < len; ++i) word.write(addr + i, values[i]);
            ASSERT_EQ(bulk.cost(), word.cost())
                << f.name() << " write [" << addr << ", " << addr + len << ")";

            std::vector<Word> got(len), expect(len);
            bulk.read_range(addr, got);
            for (std::size_t i = 0; i < len; ++i) expect[i] = word.read(addr + i);
            ASSERT_EQ(got, expect);
            ASSERT_EQ(bulk.cost(), word.cost())
                << f.name() << " read [" << addr << ", " << addr + len << ")";
        }
    }
}

TEST(RangeAccessFuzz, BtRangeMatchesPerWordAtBlockEdges) {
    const std::uint64_t capacity = 1 << 12;
    for (const auto& f : {AccessFunction::polynomial(0.35), AccessFunction::polynomial(0.5),
                          AccessFunction::logarithmic()}) {
        bt::Machine bulk(f, capacity);
        bt::Machine word(f, capacity);
        SplitMix64 rng(0xbeefu);
        for (int trial = 0; trial < 200; ++trial) {
            const auto [addr, len] = boundary_range(rng, capacity);
            std::vector<Word> values(len);
            for (auto& w : values) w = rng.next();

            bulk.write_range(addr, values);
            for (std::size_t i = 0; i < len; ++i) word.write(addr + i, values[i]);
            ASSERT_EQ(bulk.cost(), word.cost())
                << f.name() << " write [" << addr << ", " << addr + len << ")";

            std::vector<Word> got(len), expect(len);
            bulk.read_range(addr, got);
            for (std::size_t i = 0; i < len; ++i) expect[i] = word.read(addr + i);
            ASSERT_EQ(got, expect);
            ASSERT_EQ(bulk.cost(), word.cost())
                << f.name() << " read [" << addr << ", " << addr + len << ")";
        }
    }
}

/// core::HmmShardAccessor moves every delivered message record. Its
/// set_range/get_range on one account must fold what per-word set/get fold
/// on another: the same cost bits, words_touched and moved words, and when
/// Traced the same attributed words. The context's charged (virtual) and
/// data (physical) bases sit in different halves of memory and swap every
/// trial, so a range that charges or moves at the wrong base diverges.
template <bool Traced>
void check_shard_accessor_ranges(std::uint64_t seed) {
    constexpr std::uint64_t mu = 1 << 12;
    constexpr std::uint64_t capacity = 2 * mu;
    for (const auto& f : {AccessFunction::polynomial(0.35), AccessFunction::polynomial(0.5),
                          AccessFunction::logarithmic()}) {
        hmm::Machine bulk_m(f, capacity);
        hmm::Machine word_m(f, capacity);
        hmm::ShardAccount bulk_account, word_account;
        trace::AggregateSink bulk_sink, word_sink;
        core::HmmShardAccessor<Traced> bulk(bulk_m, bulk_account,
                                            Traced ? &bulk_sink : nullptr, 0, mu, mu);
        core::HmmShardAccessor<Traced> word(word_m, word_account,
                                            Traced ? &word_sink : nullptr, 0, mu, mu);
        SplitMix64 rng(seed);
        for (int trial = 0; trial < 200; ++trial) {
            const model::Addr vbase = trial % 2 == 0 ? 0 : mu;
            const model::Addr pbase = mu - vbase;
            bulk.rebind(vbase, pbase);
            word.rebind(vbase, pbase);
            const auto [index, len] = boundary_range(rng, mu);
            std::vector<Word> values(len);
            for (auto& w : values) w = rng.next();

            bulk.set_range(index, values);
            for (std::size_t i = 0; i < len; ++i) word.set(index + i, values[i]);
            ASSERT_EQ(bulk_account.cost, word_account.cost)
                << f.name() << " set [" << vbase + index << ", " << vbase + index + len
                << ")";
            ASSERT_EQ(bulk_account.words_touched, word_account.words_touched);

            std::vector<Word> got(len), expect(len);
            bulk.get_range(index, got);
            for (std::size_t i = 0; i < len; ++i) expect[i] = word.get(index + i);
            ASSERT_EQ(got, values);
            ASSERT_EQ(expect, values);
            ASSERT_EQ(bulk_account.cost, word_account.cost)
                << f.name() << " get [" << vbase + index << ", " << vbase + index + len
                << ")";
            ASSERT_EQ(bulk_account.words_touched, word_account.words_touched);
            ASSERT_TRUE(std::equal(bulk_m.raw().begin(), bulk_m.raw().end(),
                                   word_m.raw().begin()))
                << f.name() << " memories diverge after trial " << trial;
            if constexpr (Traced) {
                ASSERT_EQ(bulk_sink.attributed_words(), word_sink.attributed_words());
                ASSERT_EQ(bulk_sink.attributed_words(), bulk_account.words_touched);
            }
        }
    }
}

TEST(RangeAccessFuzz, HmmShardAccessorRangeMatchesPerWord) {
    check_shard_accessor_ranges<false>(0xacc0u);
}

TEST(RangeAccessFuzz, HmmShardAccessorTracedRangeMatchesPerWord) {
    check_shard_accessor_ranges<true>(0xacc1u);
}

}  // namespace
}  // namespace dbsp::check
