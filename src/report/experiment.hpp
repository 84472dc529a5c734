#pragma once

/// \file experiment.hpp
/// The machine-checkable form of one paper claim: an ExperimentResult holds
/// the measured series, the closed-form predictions, and a list of
/// conformance checks, each with a declared tolerance and a pass/fail
/// verdict. Every bench_eNN binary produces one of these (next to its
/// paper-style console tables); dbsp_report merges them into
/// BENCH_experiments.json and gates regressions against a committed baseline.
///
/// Check kinds:
///  * "exponent" — a fit_loglog growth exponent must land within `tolerance`
///    of `predicted` (the theorem's closed-form exponent). Carries the fit's
///    R^2 and max |log-residual| for auditability.
///  * "band"     — the max/min spread of a measured/predicted ratio series
///    must stay below `tolerance`: the empirical signature of a Theta() bound.
///    `measured` is the spread, `predicted` 1.
///  * "min"      — `measured` must be >= `predicted` (e.g. a gap that the
///    paper says grows must actually exceed a floor).
///  * "max"      — `measured` must be <= `predicted`.
/// All verdicts are computed when the check is recorded, from exact model
/// costs, so they are deterministic for a given tree.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "report/json.hpp"
#include "report/provenance.hpp"
#include "util/stats.hpp"

namespace dbsp::report {

inline constexpr const char* kExperimentSchema = "dbsp-experiment-v1";
inline constexpr const char* kCombinedSchema = "dbsp-experiments-v1";

struct Check {
    std::string id;      ///< stable slug, unique within the experiment
    std::string label;   ///< human-readable description (console line)
    std::string kind;    ///< "exponent" | "band" | "min" | "max"
    double measured = 0.0;
    double predicted = 0.0;
    double tolerance = 0.0;
    /// Fit diagnostics; only meaningful for kind == "exponent".
    double r_squared = 0.0;
    double max_residual = 0.0;
    bool pass = false;
    /// Waived checks record that their measurement was *unavailable* rather
    /// than wrong (e.g. hardware counters denied in a container): pass is
    /// forced true, `waive_reason` says why, and the regression gate skips
    /// drift comparison whenever either side of a baseline pair is waived.
    bool waived = false;
    std::string waive_reason;

    /// Evaluate the verdict from kind/measured/predicted/tolerance.
    static bool evaluate(const std::string& kind, double measured, double predicted,
                         double tolerance);

    Json to_json() const;
    /// Strict parse: wrong types or missing required fields -> nullopt with
    /// a diagnostic in \p error.
    static std::optional<Check> from_json(const Json& j, std::string* error);
};

/// One measured data series (xs strictly positive parameter values, ys the
/// measured costs) — the raw numbers behind the fitted checks, kept in the
/// artifact so a reviewer can re-fit offline.
struct Series {
    std::string name;
    std::vector<double> xs;
    std::vector<double> ys;

    Json to_json() const;
    static std::optional<Series> from_json(const Json& j, std::string* error);
};

struct ExperimentResult {
    std::string id;     ///< "e1" ... "e13"
    std::string title;  ///< "E1  HMM touching (Fact 1)"
    std::string claim;  ///< the paper claim under test
    std::vector<Series> series;
    std::vector<Check> checks;

    bool pass() const;

    /// Full artifact: schema tag, provenance envelope, series, checks,
    /// metrics snapshot (when \p with_metrics).
    Json to_json(const Provenance& provenance, bool with_metrics = true) const;

    /// Strict parse of one experiment artifact (or one element of the
    /// combined report's "experiments" array).
    static std::optional<ExperimentResult> from_json(const Json& j, std::string* error);

    /// Derive a stable check id from a display label: lowercase alnum runs
    /// joined by '-', e.g. "slope: cost vs n [x^0.35]" -> "slope-cost-vs-n-x-0-35".
    static std::string slugify(const std::string& label);
};

/// Snapshot of the global metrics registry as a JSON object
/// (counters as scalars, histograms as bucket arrays).
Json metrics_to_json();

}  // namespace dbsp::report
