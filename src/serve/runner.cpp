#include "serve/runner.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "check/trace_io.hpp"
#include "core/bounds.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "locality/sink.hpp"
#include "model/dbsp_machine.hpp"
#include "report/json.hpp"
#include "telemetry/clock.hpp"

namespace dbsp::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * kFnvPrime;
    return h;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
    // The terminator participates so concatenated fields cannot alias
    // ("ab" + "c" vs "a" + "bc").
    return fnv1a(h, s.data(), s.size() + 1);
}

std::string hex64(std::uint64_t h) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

/// Digest of the final memory images in processor order — the same
/// observable the differential oracle compares across executors.
template <typename Result>
std::string image_digest(const Result& res, std::uint64_t v) {
    std::uint64_t h = kFnvOffset;
    for (model::ProcId p = 0; p < v; ++p) {
        const std::vector<model::Word> data = res.data_of(p);
        h = fnv1a(h, data.data(), data.size() * sizeof(model::Word));
    }
    return hex64(h);
}

}  // namespace

bool valid_sample_rate(double rate) {
    return std::isfinite(rate) && rate > 0.0 && rate <= 1.0;
}

std::optional<model::AccessFunction> parse_function(const std::string& text,
                                                    std::string* error) {
    if (text == "log") return model::AccessFunction::logarithmic();
    if (text.rfind("x^", 0) == 0 && text.size() > 2) {
        char* end = nullptr;
        const double alpha = std::strtod(text.c_str() + 2, &end);
        if (end != nullptr && *end == '\0' && std::isfinite(alpha) && alpha >= 0.0) {
            return model::AccessFunction::polynomial(alpha);
        }
    }
    if (error != nullptr) {
        *error = "invalid access function \"" + text +
                 "\" (expected x^A with A a nonnegative number, or log)";
    }
    return std::nullopt;
}

std::string fingerprint(const check::ProgramSpec& spec, const RunOptions& options) {
    std::uint64_t h = kFnvOffset;
    h = fnv1a(h, check::serialize_spec(spec));
    h = fnv1a(h, options.model);
    h = fnv1a(h, options.f.key());
    if (options.locality) {
        h = fnv1a(h, options.sampled ? std::string("sampled") : std::string("exact"));
        if (options.sampled) {
            h = fnv1a(h, &options.sample_rate, sizeof(options.sample_rate));
        }
    }
    return hex64(h);
}

std::string run_to_json(const check::ProgramSpec& spec, const RunOptions& options,
                        RunObservation* obs) {
    // Telemetry scaffolding: sinks see phase scopes and superstep events
    // only; every charged cost and serialized byte below is computed exactly
    // as in the unobserved run.
    if (obs != nullptr && obs->t0_ns == 0) obs->t0_ns = telemetry::steady_now_ns();
    auto finish_leg = [&](const char* name, telemetry::SpanSink& sink,
                          std::uint64_t begin_ns) {
        if (obs == nullptr || obs->span == nullptr) return;
        telemetry::Span leg = sink.take(name);
        leg.start_ns = begin_ns - obs->t0_ns;
        leg.dur_ns = telemetry::steady_now_ns() - begin_ns;
        obs->span->children.push_back(std::move(leg));
    };

    report::Json doc = report::Json::object();
    doc.set("schema", "dbsp-serve-result-v1");
    doc.set("fingerprint", fingerprint(spec, options));
    doc.set("program", spec.describe());
    doc.set("f", options.f.name());
    doc.set("model", options.model);

    check::GeneratedProgram direct_prog(spec);
    const std::uint64_t v = spec.processors;
    const std::size_t mu = direct_prog.context_words();
    doc.set("v", v);
    doc.set("mu", static_cast<std::uint64_t>(mu));

    model::DbspMachine machine(options.f);
    telemetry::SpanSink direct_sink(obs != nullptr ? obs->t0_ns : 0);
    const std::uint64_t direct_begin_ns = telemetry::steady_now_ns();
    if (obs != nullptr && obs->span != nullptr) machine.set_trace(&direct_sink);
    const model::DbspResult direct = machine.run(direct_prog);
    machine.set_trace(nullptr);
    finish_leg("dbsp", direct_sink, direct_begin_ns);
    doc.set("supersteps", static_cast<std::uint64_t>(direct.supersteps.size()));
    report::Json dbsp = report::Json::object();
    dbsp.set("time", direct.time);
    dbsp.set("compute", direct.computation_time());
    dbsp.set("communicate", direct.communication_time());
    doc.set("dbsp", std::move(dbsp));

    locality::LocalityOptions locality_options;
    if (options.sampled) {
        locality_options.mode = locality::LocalityOptions::Mode::kSampled;
        locality_options.sample_rate = options.sample_rate;
    }
    report::Json profiles = report::Json::object();

    if (options.model == "hmm" || options.model == "both") {
        check::GeneratedProgram prog(spec);
        telemetry::SpanSink span_sink(obs != nullptr ? obs->t0_ns : 0);
        const std::uint64_t begin_ns = telemetry::steady_now_ns();
        auto smoothed = core::smooth(prog, core::hmm_label_set(options.f, mu, v));
        locality::LocalitySink loc(locality_options);
        trace::MultiSink multi{&loc, &span_sink};
        core::HmmSimulator::Options sim;
        const bool spans = obs != nullptr && obs->span != nullptr;
        if (options.locality && spans) {
            sim.trace = &multi;
        } else if (options.locality) {
            sim.trace = &loc;
        } else if (spans) {
            sim.trace = &span_sink;
        }
        const core::HmmSimResult res =
            core::HmmSimulator(options.f, sim).simulate(*smoothed);
        finish_leg("hmm", span_sink, begin_ns);
        const double bound = core::theorem5_bound(direct, options.f, v, mu);
        if (obs != nullptr) {
            obs->hmm_cost = res.hmm_cost;
            obs->thm5_bound = bound;
        }
        report::Json leg = report::Json::object();
        leg.set("cost", res.hmm_cost);
        leg.set("thm5_bound", bound);
        leg.set("rounds", res.rounds);
        leg.set("words_touched", static_cast<double>(res.words_touched));
        leg.set("image_digest", image_digest(res, v));
        doc.set("hmm", std::move(leg));
        if (options.locality) profiles.set("hmm", loc.profile().to_json());
    }

    if (options.model == "bt" || options.model == "both") {
        check::GeneratedProgram prog(spec);
        telemetry::SpanSink span_sink(obs != nullptr ? obs->t0_ns : 0);
        const std::uint64_t begin_ns = telemetry::steady_now_ns();
        auto smoothed = core::smooth(prog, core::bt_label_set(options.f, mu, v));
        locality::LocalitySink loc(locality_options);
        trace::MultiSink multi{&loc, &span_sink};
        core::BtSimulator::Options sim;
        const bool spans = obs != nullptr && obs->span != nullptr;
        if (options.locality && spans) {
            sim.trace = &multi;
        } else if (options.locality) {
            sim.trace = &loc;
        } else if (spans) {
            sim.trace = &span_sink;
        }
        const core::BtSimResult res =
            core::BtSimulator(options.f, sim).simulate(*smoothed);
        finish_leg("bt", span_sink, begin_ns);
        const double bound = core::theorem12_bound(direct, v, mu);
        if (obs != nullptr) {
            obs->bt_cost = res.bt_cost;
            obs->thm12_bound = bound;
        }
        report::Json leg = report::Json::object();
        leg.set("cost", res.bt_cost);
        leg.set("thm12_bound", bound);
        leg.set("rounds", res.rounds);
        leg.set("sorts", res.sort_invocations);
        leg.set("transposes", res.transpose_invocations);
        leg.set("block_transfers", static_cast<double>(res.block_transfers));
        leg.set("image_digest", image_digest(res, v));
        doc.set("bt", std::move(leg));
        if (options.locality) profiles.set("bt", loc.profile().to_json());
    }

    if (options.locality) {
        report::Json loc = report::Json::object();
        loc.set("mode", options.sampled ? "sampled" : "exact");
        if (options.sampled) loc.set("sample_rate", options.sample_rate);
        loc.set("profiles", std::move(profiles));
        doc.set("locality", std::move(loc));
    }
    return doc.dump_compact();
}

}  // namespace dbsp::serve
