#include "check/program_gen.hpp"

#include <algorithm>
#include <charconv>

#include "util/bits.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace dbsp::check {

using model::ProcId;
using model::StepIndex;
using model::Word;

namespace {

/// Stateless mix for init values and data-word churn; distinct from the
/// executors' arithmetic so a generated program can't accidentally cancel a
/// simulator bug.
constexpr Word mix64(Word x) noexcept {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 29;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 32;
    return x;
}

}  // namespace

std::uint64_t ProgramSpec::total_messages() const {
    std::uint64_t n = 0;
    for (const auto& step : events) {
        for (const auto& ev : step) n += ev.sends.size();
    }
    return n;
}

std::string ProgramSpec::describe() const {
    std::string out;
    out.reserve(48 + 4 * labels.size());
    const auto put = [&out](const char* text, std::uint64_t x) {
        out += text;
        char digits[20];
        out.append(digits, std::to_chars(digits, digits + sizeof digits, x).ptr);
    };
    put("v=", processors);
    put(" D=", data_words);
    put(" B=", max_messages);
    put(" steps=", labels.size());
    out += " labels=[";
    for (std::size_t s = 0; s < labels.size(); ++s) put(s == 0 ? "" : ",", labels[s]);
    put("] msgs=", total_messages());
    return out;
}

bool spec_valid(const ProgramSpec& spec, std::string* why) {
    const auto fail = [&](const std::string& reason) {
        if (why != nullptr) *why = reason;
        return false;
    };
    if (!is_pow2(spec.processors)) return fail("processors not a power of two");
    if (spec.data_words == 0) return fail("data_words == 0");
    if (spec.max_messages == 0) return fail("max_messages == 0");
    if (spec.labels.empty()) return fail("no supersteps");
    if (spec.labels.back() != 0) return fail("last label != 0");
    const unsigned log_v = ilog2(spec.processors);
    for (unsigned l : spec.labels) {
        if (l > log_v) return fail("label out of range");
    }
    if (spec.events.size() != spec.labels.size()) return fail("events/labels size mismatch");

    const model::ClusterTree tree(spec.processors);
    // Inbox-occupancy simulation under the executors' discipline: a step that
    // reads its inbox clears it, an unread inbox persists, and deliveries
    // must never push occupancy past B (superstep_exec.cpp aborts via
    // DBSP_REQUIRE otherwise — a crash, not a divergence).
    std::vector<std::size_t> occupancy(spec.processors, 0);
    std::vector<std::size_t> arrivals(spec.processors, 0);
    for (StepIndex s = 0; s < spec.labels.size(); ++s) {
        if (spec.events[s].size() != spec.processors) return fail("event row size mismatch");
        std::fill(arrivals.begin(), arrivals.end(), 0);
        for (ProcId p = 0; p < spec.processors; ++p) {
            const ProgramSpec::Event& ev = spec.events[s][p];
            if (ev.sends.size() > spec.max_messages) return fail("more than B sends");
            for (const ProgramSpec::Send& send : ev.sends) {
                if (send.dest >= spec.processors) return fail("dest out of range");
                if (!tree.same_cluster(p, send.dest, spec.labels[s])) {
                    return fail("dest outside label-cluster");
                }
                ++arrivals[send.dest];
            }
        }
        for (ProcId p = 0; p < spec.processors; ++p) {
            if (spec.events[s][p].read_inbox) occupancy[p] = 0;
            occupancy[p] += arrivals[p];
            if (occupancy[p] > spec.max_messages) return fail("inbox overflow");
        }
    }
    return true;
}

namespace {

/// Per-superstep send-pattern shapes the generator samples from. Weights are
/// tuned toward the adversarial cases: funnels exercise max-degree relations
/// and inbox-capacity edges, scatter exercises irregular h.
enum class SendPattern { kEmpty, kPermutation, kFunnel, kScatter };

SendPattern pick_pattern(SplitMix64& rng) {
    switch (rng.next_below(8)) {
        case 0: return SendPattern::kEmpty;
        case 1:
        case 2:
        case 3: return SendPattern::kPermutation;
        case 4:
        case 5: return SendPattern::kFunnel;
        default: return SendPattern::kScatter;
    }
}

/// Label sequences; each style stresses a different smoothing/scheduling
/// path. All styles force the final label to 0.
enum class LabelStyle { kUniform, kDescending, kExtremes, kMostlyFine };

std::vector<unsigned> make_labels(SplitMix64& rng, unsigned log_v, std::size_t steps) {
    std::vector<unsigned> labels(steps, 0);
    const auto style = static_cast<LabelStyle>(rng.next_below(4));
    switch (style) {
        case LabelStyle::kUniform:
            for (std::size_t s = 0; s + 1 < steps; ++s) {
                labels[s] = static_cast<unsigned>(rng.next_below(log_v + 1));
            }
            break;
        case LabelStyle::kDescending: {
            // Repeated climbs followed by strict descents: every descent of
            // more than one level forces L-smoothing to insert dummy steps.
            unsigned cur = log_v;
            for (std::size_t s = 0; s + 1 < steps; ++s) {
                labels[s] = cur;
                if (cur == 0 || rng.next_below(3) == 0) {
                    cur = static_cast<unsigned>(rng.next_below(log_v + 1));
                } else {
                    cur -= static_cast<unsigned>(
                        std::min<std::uint64_t>(cur, 1 + rng.next_below(2)));
                }
            }
            break;
        }
        case LabelStyle::kExtremes:
            for (std::size_t s = 0; s + 1 < steps; ++s) {
                labels[s] = (s % 2 == 0) ? log_v : 0;
            }
            break;
        case LabelStyle::kMostlyFine:
            for (std::size_t s = 0; s + 1 < steps; ++s) {
                labels[s] = rng.next_below(4) == 0
                                ? static_cast<unsigned>(rng.next_below(log_v + 1))
                                : log_v;
            }
            break;
    }
    return labels;
}

}  // namespace

ProgramSpec generate_spec(const GenConfig& config, std::uint64_t seed) {
    DBSP_REQUIRE(!config.v_choices.empty());
    DBSP_REQUIRE(config.max_supersteps >= 1);
    DBSP_REQUIRE(config.max_data_words >= 1);
    DBSP_REQUIRE(config.max_buffer >= 1);
    SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);

    ProgramSpec spec;
    spec.seed = seed;
    spec.processors = config.v_choices[rng.next_below(config.v_choices.size())];
    DBSP_REQUIRE(is_pow2(spec.processors));
    spec.data_words = 1 + rng.next_below(config.max_data_words);
    spec.max_messages = 1 + rng.next_below(config.max_buffer);
    const unsigned log_v = ilog2(spec.processors);
    const std::size_t steps = 1 + rng.next_below(config.max_supersteps);
    spec.labels = make_labels(rng, log_v, steps);

    const model::ClusterTree tree(spec.processors);
    const std::uint64_t v = spec.processors;
    const std::size_t B = spec.max_messages;
    spec.events.assign(steps, std::vector<ProgramSpec::Event>(v));

    // Occupancy under the read-clears / unread-persists rule; room[p] is the
    // number of deliveries processor p can still absorb this superstep.
    std::vector<std::size_t> occupancy(v, 0);
    std::vector<std::size_t> room(v, 0);
    for (StepIndex s = 0; s < steps; ++s) {
        const unsigned label = spec.labels[s];
        const std::uint64_t csize = tree.cluster_size(label);
        for (ProcId p = 0; p < v; ++p) {
            ProgramSpec::Event& ev = spec.events[s][p];
            ev.extra_ops = rng.next_below(config.max_extra_ops + 1);
            ev.touch_data = rng.next_below(3) != 0;
            // Bias toward reading when messages are waiting, but regularly
            // leave a non-empty inbox unread so it must survive scheduling
            // (and smoothing dummies) untouched.
            ev.read_inbox = occupancy[p] > 0 ? rng.next_below(4) != 0
                                             : rng.next_below(2) == 0;
            room[p] = B - (ev.read_inbox ? 0 : occupancy[p]);
        }
        for (std::uint64_t c = 0; c < tree.num_clusters(label); ++c) {
            const ProcId first = tree.cluster_first(c, label);
            const SendPattern pattern = pick_pattern(rng);
            const auto payload = [&rng] { return rng.next(); };
            switch (pattern) {
                case SendPattern::kEmpty:
                    break;
                case SendPattern::kPermutation: {
                    // Rotate by a random shift within the cluster.
                    const std::uint64_t shift = rng.next_below(csize);
                    for (std::uint64_t k = 0; k < csize; ++k) {
                        const ProcId p = first + k;
                        const ProcId dest = first + (k + shift) % csize;
                        if (room[dest] == 0) continue;
                        --room[dest];
                        spec.events[s][p].sends.push_back({dest, payload(), payload()});
                    }
                    break;
                }
                case SendPattern::kFunnel: {
                    // Max in-degree: everyone targets one processor until its
                    // inbox capacity is exhausted.
                    const ProcId target = first + rng.next_below(csize);
                    for (std::uint64_t k = 0; k < csize && room[target] > 0; ++k) {
                        const ProcId p = first + (target - first + k) % csize;
                        --room[target];
                        spec.events[s][p].sends.push_back({target, payload(), payload()});
                    }
                    break;
                }
                case SendPattern::kScatter: {
                    for (std::uint64_t k = 0; k < csize; ++k) {
                        const ProcId p = first + k;
                        const std::uint64_t wanted = rng.next_below(B + 1);
                        for (std::uint64_t m = 0; m < wanted; ++m) {
                            const ProcId dest = first + rng.next_below(csize);
                            if (room[dest] == 0) continue;
                            --room[dest];
                            spec.events[s][p].sends.push_back({dest, payload(), payload()});
                        }
                    }
                    break;
                }
            }
        }
        for (ProcId p = 0; p < v; ++p) {
            if (spec.events[s][p].read_inbox) occupancy[p] = 0;
        }
        for (ProcId p = 0; p < v; ++p) {
            for (const ProgramSpec::Send& send : spec.events[s][p].sends) {
                ++occupancy[send.dest];
            }
        }
    }

    DBSP_ENSURE(spec_valid(spec));
    return spec;
}

GeneratedProgram::GeneratedProgram(ProgramSpec spec) : spec_(std::move(spec)) {
    std::string why;
    if (!spec_valid(spec_, &why)) {
        DBSP_REQUIRE(false && "GeneratedProgram: invalid spec");
    }
}

void GeneratedProgram::init(ProcId p, std::span<Word> data) const {
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = mix64(spec_.seed ^ (p * 0x100000001b3ull) ^ (i + 1));
    }
}

void GeneratedProgram::step(StepIndex s, ProcId p, model::StepContext& ctx) {
    const ProgramSpec::Event& ev = spec_.events[s][p];
    if (ev.read_inbox) {
        // Order-sensitive fold: a simulator delivering the same multiset of
        // messages in a different canonical order produces a different word.
        const std::size_t n = ctx.inbox_size();
        Word digest = ctx.load(0);
        for (std::size_t k = 0; k < n; ++k) {
            const model::Message m = ctx.inbox(k);
            digest = digest * 1099511628211ull ^ mix64(m.payload0) ^
                     (m.payload1 << 1) ^ (m.src * 0x9e3779b97f4a7c15ull);
        }
        ctx.store(0, digest);
    }
    if (ev.touch_data) {
        // Chain-mix every data word so one stale or misplaced word corrupts
        // the whole context image by the end of the program.
        Word carry = ctx.load(0);
        for (std::size_t i = 1; i < spec_.data_words; ++i) {
            carry = mix64(ctx.load(i) + carry);
            ctx.store(i, carry);
        }
        ctx.store(0, mix64(carry ^ ctx.load(0)));
    }
    if (ev.extra_ops > 0) ctx.charge_ops(ev.extra_ops);
    const Word salt = ctx.load(0);
    for (const ProgramSpec::Send& send : ev.sends) {
        ctx.send(send.dest, send.payload0 ^ salt, send.payload1);
    }
}

}  // namespace dbsp::check
