#include "report/experiment.hpp"

#include <cctype>
#include <cmath>

#include "report/metrics.hpp"

namespace dbsp::report {

bool Check::evaluate(const std::string& kind, double measured, double predicted,
                     double tolerance) {
    if (!std::isfinite(measured)) return false;
    if (kind == "exponent") return std::fabs(measured - predicted) <= tolerance;
    if (kind == "band") return measured <= tolerance;
    if (kind == "min") return measured >= predicted;
    if (kind == "max") return measured <= predicted;
    return false;
}

Json Check::to_json() const {
    Json j = Json::object();
    j.set("id", id);
    j.set("label", label);
    j.set("kind", kind);
    j.set("measured", measured);
    j.set("predicted", predicted);
    j.set("tolerance", tolerance);
    if (kind == "exponent") {
        j.set("r_squared", r_squared);
        j.set("max_residual", max_residual);
    }
    if (waived) {
        j.set("waived", true);
        j.set("waive_reason", waive_reason);
    }
    j.set("pass", pass);
    return j;
}

namespace {

bool require_string(const Json& j, const char* key, std::string& out, std::string* error) {
    if (!j[key].is_string()) {
        if (error != nullptr) *error = std::string("missing or non-string \"") + key + "\"";
        return false;
    }
    out = j[key].as_string();
    return true;
}

bool require_number(const Json& j, const char* key, double& out, std::string* error) {
    if (!j[key].is_number()) {
        if (error != nullptr) *error = std::string("missing or non-numeric \"") + key + "\"";
        return false;
    }
    out = j[key].as_double();
    return true;
}

}  // namespace

std::optional<Check> Check::from_json(const Json& j, std::string* error) {
    Check c;
    if (!j.is_object()) {
        if (error != nullptr) *error = "check is not an object";
        return std::nullopt;
    }
    if (!require_string(j, "id", c.id, error) || !require_string(j, "label", c.label, error) ||
        !require_string(j, "kind", c.kind, error) ||
        !require_number(j, "measured", c.measured, error) ||
        !require_number(j, "predicted", c.predicted, error) ||
        !require_number(j, "tolerance", c.tolerance, error)) {
        return std::nullopt;
    }
    if (c.kind != "exponent" && c.kind != "band" && c.kind != "min" && c.kind != "max") {
        if (error != nullptr) *error = "unknown check kind \"" + c.kind + "\"";
        return std::nullopt;
    }
    c.r_squared = j["r_squared"].as_double(0.0);
    c.max_residual = j["max_residual"].as_double(0.0);
    // Optional (absent in pre-waiver artifacts). A waived check must not
    // record a failing verdict: waiving exists precisely so unavailable
    // measurements don't fail, and a hand-edited waived+fail pair is
    // malformed.
    c.waived = j["waived"].as_bool(false);
    c.waive_reason = j["waive_reason"].is_string() ? j["waive_reason"].as_string() : "";
    if (!j["pass"].is_bool()) {
        if (error != nullptr) *error = "missing or non-boolean \"pass\"";
        return std::nullopt;
    }
    c.pass = j["pass"].as_bool();
    if (c.waived && !c.pass) {
        if (error != nullptr) *error = "check \"" + c.id + "\" is waived but records pass=false";
        return std::nullopt;
    }
    return c;
}

Json Series::to_json() const {
    Json j = Json::object();
    j.set("name", name);
    Json xs_json = Json::array();
    for (double x : xs) xs_json.push_back(x);
    Json ys_json = Json::array();
    for (double y : ys) ys_json.push_back(y);
    j.set("xs", std::move(xs_json));
    j.set("ys", std::move(ys_json));
    return j;
}

std::optional<Series> Series::from_json(const Json& j, std::string* error) {
    Series s;
    if (!j.is_object() || !require_string(j, "name", s.name, error)) {
        if (error != nullptr && error->empty()) *error = "series is not an object";
        return std::nullopt;
    }
    for (const char* key : {"xs", "ys"}) {
        const Json& arr = j[key];
        if (!arr.is_array()) {
            if (error != nullptr) *error = std::string("series \"") + key + "\" is not an array";
            return std::nullopt;
        }
        auto& dst = (key[0] == 'x') ? s.xs : s.ys;
        for (const Json& v : arr.items()) {
            if (!v.is_number()) {
                if (error != nullptr) {
                    *error = std::string("non-numeric entry in series \"") + key + "\"";
                }
                return std::nullopt;
            }
            dst.push_back(v.as_double());
        }
    }
    if (s.xs.size() != s.ys.size()) {
        if (error != nullptr) *error = "series \"" + s.name + "\": xs/ys length mismatch";
        return std::nullopt;
    }
    return s;
}

bool ExperimentResult::pass() const {
    for (const auto& c : checks) {
        if (!c.pass) return false;
    }
    return true;
}

Json ExperimentResult::to_json(const Provenance& provenance, bool with_metrics) const {
    Json j = Json::object();
    j.set("schema", kExperimentSchema);
    j.set("provenance", provenance.to_json());
    j.set("id", id);
    j.set("title", title);
    j.set("claim", claim);
    Json series_json = Json::array();
    for (const auto& s : series) series_json.push_back(s.to_json());
    j.set("series", std::move(series_json));
    Json checks_json = Json::array();
    for (const auto& c : checks) checks_json.push_back(c.to_json());
    j.set("checks", std::move(checks_json));
    j.set("pass", pass());
    if (with_metrics) j.set("metrics", metrics_to_json());
    return j;
}

std::optional<ExperimentResult> ExperimentResult::from_json(const Json& j, std::string* error) {
    ExperimentResult r;
    if (!j.is_object()) {
        if (error != nullptr) *error = "experiment is not an object";
        return std::nullopt;
    }
    if (j.contains("schema") && j["schema"].as_string() != kExperimentSchema) {
        if (error != nullptr) *error = "unsupported schema \"" + j["schema"].as_string() + "\"";
        return std::nullopt;
    }
    if (!require_string(j, "id", r.id, error) || !require_string(j, "title", r.title, error) ||
        !require_string(j, "claim", r.claim, error)) {
        return std::nullopt;
    }
    if (!j["checks"].is_array() || j["checks"].size() == 0) {
        if (error != nullptr) *error = "experiment \"" + r.id + "\": missing checks array";
        return std::nullopt;
    }
    for (const Json& cj : j["checks"].items()) {
        auto c = Check::from_json(cj, error);
        if (!c) {
            if (error != nullptr) *error = "experiment \"" + r.id + "\": " + *error;
            return std::nullopt;
        }
        r.checks.push_back(std::move(*c));
    }
    for (const Json& sj : j["series"].items()) {
        auto s = Series::from_json(sj, error);
        if (!s) {
            if (error != nullptr) *error = "experiment \"" + r.id + "\": " + *error;
            return std::nullopt;
        }
        r.series.push_back(std::move(*s));
    }
    // The recorded overall verdict must agree with the checks: a hand-edited
    // artifact that claims "pass" over failing checks is malformed.
    if (j["pass"].is_bool() && j["pass"].as_bool() != r.pass()) {
        if (error != nullptr) {
            *error = "experiment \"" + r.id + "\": recorded pass flag contradicts checks";
        }
        return std::nullopt;
    }
    return r;
}

std::string ExperimentResult::slugify(const std::string& label) {
    std::string out;
    bool pending_dash = false;
    for (unsigned char c : label) {
        if (std::isalnum(c)) {
            if (pending_dash && !out.empty()) out += '-';
            pending_dash = false;
            out += static_cast<char>(std::tolower(c));
        } else {
            pending_dash = true;
        }
    }
    return out.empty() ? "check" : out;
}

Json metrics_to_json() {
    Json j = Json::object();
    for (const auto& m : Registry::global().snapshot()) {
        switch (m.kind) {
            case MetricValue::Kind::kCounter: j.set(m.name, m.count); break;
            case MetricValue::Kind::kHistogram: {
                Json h = Json::object();
                h.set("total", m.count);
                Json buckets = Json::array();
                for (std::uint64_t b : m.buckets) buckets.push_back(b);
                h.set("log2_buckets", std::move(buckets));
                j.set(m.name, std::move(h));
                break;
            }
        }
    }
    return j;
}

}  // namespace dbsp::report
