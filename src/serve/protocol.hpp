#pragma once

/// \file protocol.hpp
/// The dbsp_serve wire protocol: newline-framed request/response over a
/// local stream socket. Each request is ONE line holding one JSON object;
/// each reply is ONE line holding one JSON object. A connection may write
/// any number of request lines before reading (pipelined batching) — the
/// server answers strictly in request order.
///
/// Requests ("dbsp-serve-request-v1", implicit — the object shape IS the
/// version):
///   {"op":"run","spec":"dbsp-spec v1\n...","f":"x^0.5","model":"both",
///    "locality":{"mode":"sampled","rate":0.05}}
///   {"op":"metrics"}   live registry snapshot
///   {"op":"stats"}     server/cache counters
///   {"op":"ping"}      liveness probe
///   {"op":"shutdown"}  clean daemon stop
///   {"op":"watch","interval_ms":1000,"count":5}
///                      stream `count` newline-framed "dbsp-telemetry-v2"
///                      frames, one every `interval_ms` — the ONE op whose
///                      reply spans multiple lines
///   {"op":"spans","limit":16}
///                      recent-request span trees, newest first
///
/// Parsing is strict, exit-2 style translated to the wire: unknown fields,
/// wrong types, degenerate sampling rates, oversized or overdeep JSON and
/// malformed specs all produce {"ok":false,"error":"..."} — a structured
/// error reply, never a dead daemon. The same validation rules as the
/// dbsp_explore CLI flags apply (notably valid_sample_rate for
/// locality.rate; NaN/inf never even parse, the strict JSON reader rejects
/// them as tokens).

#include <string>

#include "check/program_gen.hpp"
#include "report/json.hpp"
#include "serve/runner.hpp"

namespace dbsp::serve {

/// Bounds applied to every request line before/while parsing. A request is
/// a flat object holding one spec string; depth 16 and 4 MiB are far above
/// any legitimate request and far below anything that could hurt.
report::ParseLimits request_limits(std::size_t max_bytes);

struct Request {
    enum class Op { kRun, kMetrics, kStats, kPing, kShutdown, kWatch, kSpans };
    Op op = Op::kPing;
    /// Valid iff op == kRun.
    check::ProgramSpec spec;
    RunOptions options;
    /// Valid iff op == kWatch: frame cadence and stream length. Bounded so a
    /// client typo cannot park a connection thread for hours.
    std::uint64_t interval_ms = 1000;  ///< 0..60000
    std::uint64_t count = 1;           ///< 1..3600 frames
    /// Valid iff op == kSpans.
    std::uint64_t limit = 16;  ///< 1..1024 span trees
};

/// Strict parse + validation of one request line. On failure returns false
/// and stores a human-readable message in \p error.
bool parse_request(const std::string& line, std::size_t max_bytes, Request* out,
                   std::string* error);

/// {"ok":false,"error":"<message>"} — message JSON-escaped.
std::string error_reply(const std::string& message);

/// {"ok":true,"cached":<cached>,"result":<result>} where \p result is an
/// already-serialized compact document, spliced in verbatim — the reply
/// carries the result's exact bytes on hit and miss alike.
std::string run_reply(const std::string& result, bool cached);

/// {"ok":true,"<key>":<body>} for the metrics/stats replies.
std::string object_reply(const std::string& key, const report::Json& body);

}  // namespace dbsp::serve
