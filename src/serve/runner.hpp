#pragma once

/// \file runner.hpp
/// The deterministic request executor behind dbsp_serve: run one
/// `dbsp-spec v1` program through the direct D-BSP executor plus the
/// requested HMM/BT simulations and serialize the costs, theorem bounds,
/// final-image digests and (optionally) locality profiles as one compact
/// JSON document, schema "dbsp-serve-result-v1".
///
/// Determinism contract: the document is a pure function of (spec, options).
/// It contains no timestamps, wall-clock durations, hostnames or thread
/// counts — every executor runs one serial schedule, so the same request
/// produces the same bytes on a 1-CPU container and a 32-core box. The
/// daemon's parallelism is across connections, never inside one run. That
/// is what makes the serve result cache sound: a cache hit replays the
/// stored bytes, and `dbsp_explore --spec` reproduces them offline for the
/// byte-identity conformance check.
///
/// The same property keys the cache: fingerprint() hashes the canonical
/// spec serialization together with every option that influences the
/// document (model selection, access function, locality mode/rate).

#include <cstdint>
#include <optional>
#include <string>

#include "check/program_gen.hpp"
#include "model/access_function.hpp"
#include "telemetry/span.hpp"

namespace dbsp::serve {

/// Per-request knobs, all optional in the wire schema.
struct RunOptions {
    /// Which simulations to run: "hmm", "bt", "both" or "none" (direct
    /// D-BSP cost only).
    std::string model = "both";
    /// Access function of the target hierarchical machine.
    model::AccessFunction f = model::AccessFunction::polynomial(0.5);
    /// Attach the address-stream locality profiler to the simulation legs.
    bool locality = false;
    /// SHARDS-sampled profiler instead of the exact engine.
    bool sampled = false;
    /// Sampling rate; must satisfy valid_sample_rate when sampled.
    double sample_rate = 0.01;
    /// Inert: read by nothing. Kept only because benchmark/src/serve_mix.cpp
    /// sets it.
    std::size_t threads = 0;
};

/// The one sampling-rate contract, shared by the dbsp_explore
/// `--locality:sampled@rate` flag and the serve request schema: finite,
/// strictly positive, at most 1. NaN, inf, 0, negatives and rates > 1 are
/// all invalid — degenerate rates are rejected, never clamped.
bool valid_sample_rate(double rate);

/// Strict non-exiting access-function parse: "log" or "x^A" with A a full
/// nonnegative floating-point literal, no trailing garbage. Returns nullopt
/// (and a message) on violation.
std::optional<model::AccessFunction> parse_function(const std::string& text,
                                                    std::string* error);

/// Cache key: FNV-1a over the canonical spec serialization and every
/// result-influencing option. Two requests with equal fingerprints produce
/// byte-identical result documents.
std::string fingerprint(const check::ProgramSpec& spec, const RunOptions& options);

/// Wall-clock observation of one run, collected alongside (never inside)
/// the deterministic result document. When \p span is non-null the executor
/// legs attach a telemetry::SpanSink through the existing trace phase-scope
/// hooks and append one leg span each ("dbsp" / "hmm" / "bt", with
/// superstep-granularity children); the slack fields mirror the cost and
/// bound values the document itself carries, so the telemetry layer can
/// gauge measured-cost-over-theorem-bound without re-parsing the reply.
/// Observation is strictly read-alongside: the returned bytes are
/// byte-identical with and without it (regression-tested).
struct RunObservation {
    telemetry::Span* span = nullptr;  ///< leg spans appended here
    std::uint64_t t0_ns = 0;          ///< request start (span timebase)
    double hmm_cost = 0.0;
    double thm5_bound = 0.0;
    double bt_cost = 0.0;
    double thm12_bound = 0.0;
};

/// Execute the spec and return the compact single-line
/// "dbsp-serve-result-v1" document (no trailing newline). Deterministic;
/// see the file comment. \p obs (optional) receives wall-clock spans and
/// bound-slack inputs and never influences the returned bytes.
std::string run_to_json(const check::ProgramSpec& spec, const RunOptions& options,
                        RunObservation* obs = nullptr);

}  // namespace dbsp::serve
