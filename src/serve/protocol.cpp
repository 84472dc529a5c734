#include "serve/protocol.hpp"

#include "check/trace_io.hpp"

namespace dbsp::serve {

namespace {

bool fail(std::string* error, const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
}

bool parse_locality(const report::Json& loc, RunOptions* options, std::string* error) {
    if (!loc.is_object()) return fail(error, "locality: expected an object");
    locality::LocalityOptions parsed;
    for (const auto& [key, value] : loc.members()) {
        if (key == "mode") {
            const std::string& mode = value.as_string();
            if (!value.is_string() || (mode != "exact" && mode != "sampled")) {
                return fail(error, "locality.mode: expected \"exact\" or \"sampled\"");
            }
            parsed.mode = mode == "sampled" ? locality::LocalityOptions::Mode::kSampled
                                            : locality::LocalityOptions::Mode::kExact;
        } else if (key == "rate") {
            if (!value.is_number() || !valid_sample_rate(value.as_double())) {
                return fail(error, "locality.rate: expected a number in (0, 1]");
            }
            parsed.sample_rate = value.as_double();
        } else {
            return fail(error, "locality: unknown field \"" + key + "\"");
        }
    }
    if (parsed.mode != locality::LocalityOptions::Mode::kSampled && loc.contains("rate")) {
        return fail(error, "locality.rate: only valid with mode \"sampled\"");
    }
    options->locality = parsed;
    return true;
}

/// Strict bounded-integer field: a JSON number that is a whole value within
/// [lo, hi]. Rejects fractions, negatives, and out-of-range values with the
/// field name in the message. The range check comes first: converting a
/// double outside uint64_t's range to uint64_t is undefined behaviour.
bool parse_bounded_u64(const report::Json& value, const char* name, std::uint64_t lo,
                       std::uint64_t hi, std::uint64_t* out, std::string* error) {
    const double d = value.as_double();
    if (!value.is_number() || d < static_cast<double>(lo) || d > static_cast<double>(hi) ||
        d != static_cast<double>(static_cast<std::uint64_t>(d))) {
        return fail(error, std::string(name) + ": expected an integer in [" +
                               std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    *out = static_cast<std::uint64_t>(d);
    return true;
}

}  // namespace

report::ParseLimits request_limits(std::size_t max_bytes) {
    report::ParseLimits limits;
    limits.max_depth = 16;
    limits.max_bytes = max_bytes;
    return limits;
}

bool parse_request(const std::string& line, std::size_t max_bytes, Request* out,
                   std::string* error) {
    std::string parse_error;
    const auto doc = report::Json::parse(line, &parse_error, request_limits(max_bytes));
    if (!doc.has_value()) return fail(error, "request: " + parse_error);
    if (!doc->is_object()) return fail(error, "request: expected a JSON object");

    const report::Json& op = (*doc)["op"];
    if (!op.is_string()) return fail(error, "request: missing \"op\" string");
    Request req;
    const std::string& name = op.as_string();
    if (name == "run") {
        req.op = Request::Op::kRun;
    } else if (name == "metrics") {
        req.op = Request::Op::kMetrics;
    } else if (name == "stats") {
        req.op = Request::Op::kStats;
    } else if (name == "ping") {
        req.op = Request::Op::kPing;
    } else if (name == "shutdown") {
        req.op = Request::Op::kShutdown;
    } else if (name == "watch") {
        req.op = Request::Op::kWatch;
    } else if (name == "spans") {
        req.op = Request::Op::kSpans;
    } else {
        return fail(error, "request: unknown op \"" + name + "\"");
    }

    if (req.op == Request::Op::kWatch) {
        for (const auto& [key, value] : doc->members()) {
            if (key == "op") continue;
            if (key == "interval_ms") {
                if (!parse_bounded_u64(value, "interval_ms", 0, 60000,
                                       &req.interval_ms, error)) {
                    return false;
                }
            } else if (key == "count") {
                if (!parse_bounded_u64(value, "count", 1, 3600, &req.count, error)) {
                    return false;
                }
            } else {
                return fail(error, "request: unknown field \"" + key + "\"");
            }
        }
        *out = std::move(req);
        return true;
    }

    if (req.op == Request::Op::kSpans) {
        for (const auto& [key, value] : doc->members()) {
            if (key == "op") continue;
            if (key == "limit") {
                if (!parse_bounded_u64(value, "limit", 1, 1024, &req.limit, error)) {
                    return false;
                }
            } else {
                return fail(error, "request: unknown field \"" + key + "\"");
            }
        }
        *out = std::move(req);
        return true;
    }

    if (req.op != Request::Op::kRun) {
        // Non-run ops carry no other fields — reject stragglers so typos
        // ("spec" on a ping) fail loudly.
        for (const auto& [key, value] : doc->members()) {
            (void)value;
            if (key != "op") return fail(error, "request: unknown field \"" + key + "\"");
        }
        *out = std::move(req);
        return true;
    }

    bool have_spec = false;
    for (const auto& [key, value] : doc->members()) {
        if (key == "op") continue;
        if (key == "spec") {
            if (!value.is_string()) return fail(error, "spec: expected a string");
            std::string spec_error;
            if (!check::parse_spec(value.as_string(), &req.spec, &spec_error)) {
                return fail(error, "spec: " + spec_error);
            }
            have_spec = true;
        } else if (key == "f") {
            if (!value.is_string()) return fail(error, "f: expected a string");
            std::string f_error;
            auto f = parse_function(value.as_string(), &f_error);
            if (!f.has_value()) return fail(error, "f: " + f_error);
            req.options.f = *std::move(f);
        } else if (key == "model") {
            const std::string& model = value.as_string();
            if (!value.is_string() || (model != "hmm" && model != "bt" &&
                                       model != "both" && model != "none")) {
                return fail(error, "model: expected hmm, bt, both, or none");
            }
            req.options.model = model;
        } else if (key == "locality") {
            if (!parse_locality(value, &req.options, error)) return false;
        } else {
            return fail(error, "request: unknown field \"" + key + "\"");
        }
    }
    if (!have_spec) return fail(error, "request: run requires a \"spec\" string");
    *out = std::move(req);
    return true;
}

std::string error_reply(const std::string& message) {
    report::Json reply = report::Json::object();
    reply.set("ok", false);
    reply.set("error", message);
    return reply.dump_compact();
}

std::string run_reply(const std::string& result, bool cached) {
    std::string reply = "{\"ok\":true,\"cached\":";
    reply += cached ? "true" : "false";
    reply += ",\"result\":";
    reply += result;
    reply += "}";
    return reply;
}

std::string object_reply(const std::string& key, const report::Json& body) {
    report::Json reply = report::Json::object();
    reply.set("ok", true);
    reply.set(key, body);
    return reply.dump_compact();
}

}  // namespace dbsp::serve
