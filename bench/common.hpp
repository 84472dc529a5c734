#pragma once

/// \file common.hpp
/// Shared harness for the experiment binaries. Each bench_eNN binary
/// reproduces one claim of the paper (see DESIGN.md §6) and drives one
/// bench::Experiment: it prints the paper-style tables (one row per sweep
/// point, columns for the measured simulated cost, the closed-form
/// prediction, and their ratio) AND records every comparison as a
/// machine-checkable report::Check with a declared tolerance. finish()
/// prints the verdict summary and, when the binary was invoked with
/// `--json FILE`, writes the full ExperimentResult artifact (provenance
/// envelope + measured series + checks + metrics snapshot) for
/// tools/dbsp_report to merge and gate.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "model/access_function.hpp"
#include "report/experiment.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dbsp::bench {

inline void section(const std::string& text) {
    std::printf("\n--- %s ---\n", text.c_str());
}

/// One experiment run: console reporting + conformance recording.
class Experiment {
public:
    Experiment(std::string id, std::string title, std::string claim) {
        result_.id = std::move(id);
        result_.title = std::move(title);
        result_.claim = std::move(claim);
        std::printf("==============================================================\n");
        std::printf("%s\n", result_.title.c_str());
        std::printf("Paper claim: %s\n", result_.claim.c_str());
        std::printf("==============================================================\n");
    }

    /// Accept `--json FILE` (write the artifact there). Returns false after
    /// printing usage on anything unrecognized; the caller should exit 2.
    bool parse_args(int argc, char** argv) {
        for (int i = 1; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (arg == "--json" && i + 1 < argc) {
                json_path_ = argv[++i];
            } else {
                std::fprintf(stderr, "usage: %s [--json FILE]\n", argv[0]);
                return false;
            }
        }
        return true;
    }

    /// Run \p fn, recording its wall time and the worker count it ran on as
    /// a provenance leg (written into the artifact's envelope by finish()).
    /// Model costs stay bit-identical at every thread count, so the legs are
    /// the only place the artifact reflects parallel execution at all.
    template <typename Fn>
    auto timed_leg(const std::string& name, Fn&& fn) {
        const auto start = std::chrono::steady_clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            record_leg(name, start);
        } else {
            auto value = fn();
            record_leg(name, start);
            return value;
        }
    }

    /// Record a raw measured series in the artifact (the numbers behind the
    /// fitted checks, so a reviewer can re-fit offline).
    void series(const std::string& name, const std::vector<double>& xs,
                const std::vector<double>& ys) {
        result_.series.push_back({name, xs, ys});
    }

    /// Fit log(ys) vs log(xs) and check the growth exponent against the
    /// theorem's closed-form value: |slope - predicted| <= tolerance.
    /// Also records the series under the check's label. Returns the fit.
    LogLogFit check_slope(const std::string& label, const std::vector<double>& xs,
                          const std::vector<double>& ys, double predicted,
                          double tolerance) {
        const LogLogFit fit = fit_loglog(xs, ys);
        report::Check c;
        c.label = label;
        c.id = report::ExperimentResult::slugify(label);
        c.kind = "exponent";
        c.measured = fit.slope;
        c.predicted = predicted;
        c.tolerance = tolerance;
        c.r_squared = fit.r_squared;
        c.max_residual = fit.max_residual;
        c.pass = report::Check::evaluate(c.kind, c.measured, c.predicted, c.tolerance);
        std::printf("%-44s measured exponent %.3f (predicted %.3f +- %.2f, R^2 %.4f) [%s]\n",
                    label.c_str(), fit.slope, predicted, tolerance, fit.r_squared,
                    c.pass ? "pass" : "FAIL");
        series(label, xs, ys);
        push(c);
        return fit;
    }

    /// Check that a measured/predicted ratio series stays within a constant
    /// band: spread(ratios) <= max_spread — the empirical signature of a
    /// Theta() bound.
    double check_band(const std::string& label, const std::vector<double>& ratios,
                      double max_spread) {
        const double s = spread(ratios);
        report::Check c;
        c.label = label;
        c.id = report::ExperimentResult::slugify(label);
        c.kind = "band";
        c.measured = s;
        c.predicted = 1.0;
        c.tolerance = max_spread;
        c.pass = report::Check::evaluate(c.kind, c.measured, c.predicted, c.tolerance);
        std::printf("%-44s ratio band [%.3f, %.3f], spread %.2fx (allowed %.2fx) [%s]\n",
                    label.c_str(), *std::min_element(ratios.begin(), ratios.end()),
                    *std::max_element(ratios.begin(), ratios.end()), s, max_spread,
                    c.pass ? "pass" : "FAIL");
        push(c);
        return s;
    }

    /// Check measured >= floor_value (e.g. a separation the paper says grows).
    /// `drift_tolerance`, when non-zero, does not affect this verdict — it is
    /// recorded in the artifact and read by the regression gate as the
    /// allowed *absolute* drift of the measured value vs the committed
    /// baseline, replacing the default relative-drift rule. Declare it on
    /// checks whose measured value is exact but fold-order sensitive (e.g.
    /// locality scores, whose last decimals move when an engine change
    /// regroups the identical event stream).
    bool check_min(const std::string& label, double measured, double floor_value,
                   double drift_tolerance = 0.0) {
        report::Check c;
        c.label = label;
        c.id = report::ExperimentResult::slugify(label);
        c.kind = "min";
        c.measured = measured;
        c.predicted = floor_value;
        c.tolerance = drift_tolerance;
        c.pass = report::Check::evaluate(c.kind, measured, floor_value, 0.0);
        std::printf("%-44s measured %.3f (>= %.3f required) [%s]\n", label.c_str(),
                    measured, floor_value, c.pass ? "pass" : "FAIL");
        push(c);
        return c.pass;
    }

    /// Check measured <= ceiling_value (e.g. an overhead the paper bounds).
    /// `drift_tolerance` as in check_min.
    bool check_max(const std::string& label, double measured, double ceiling_value,
                   double drift_tolerance = 0.0) {
        report::Check c;
        c.label = label;
        c.id = report::ExperimentResult::slugify(label);
        c.kind = "max";
        c.measured = measured;
        c.predicted = ceiling_value;
        c.tolerance = drift_tolerance;
        c.pass = report::Check::evaluate(c.kind, measured, ceiling_value, 0.0);
        std::printf("%-44s measured %.3f (<= %.3f required) [%s]\n", label.c_str(),
                    measured, ceiling_value, c.pass ? "pass" : "FAIL");
        push(c);
        return c.pass;
    }

    /// Record a check whose measurement is unavailable on this host (e.g.
    /// hardware counters denied) as *waived*: pass is forced true, the
    /// reason is kept in the artifact, and the regression gate skips drift
    /// comparison whenever either side of a baseline pair is waived. Use the
    /// same label as the measured variant so baselines from counter-enabled
    /// and counter-less machines line up check-for-check.
    void check_waived(const std::string& label, const std::string& kind,
                      double predicted, const std::string& reason,
                      double drift_tolerance = 0.0) {
        report::Check c;
        c.label = label;
        c.id = report::ExperimentResult::slugify(label);
        c.kind = kind;
        c.measured = 0.0;
        c.predicted = predicted;
        c.tolerance = drift_tolerance;
        c.pass = true;
        c.waived = true;
        c.waive_reason = reason;
        std::printf("%-44s [waived: %s]\n", label.c_str(), reason.c_str());
        push(c);
    }

    /// Print the verdict summary; write the JSON artifact when requested.
    /// Returns the process exit code: 0 all checks pass, 1 a check failed,
    /// 2 the artifact could not be written.
    int finish() {
        std::size_t passed = 0;
        for (const auto& c : result_.checks) passed += c.pass ? 1 : 0;
        std::printf("\n%s: %zu/%zu checks pass -> %s\n", result_.id.c_str(), passed,
                    result_.checks.size(), result_.pass() ? "PASS" : "FAIL");
        if (!json_path_.empty()) {
            auto prov = report::Provenance::collect();
            prov.legs = legs_;
            std::string error;
            if (!result_.to_json(prov, true).save_file(json_path_, &error)) {
                std::fprintf(stderr, "%s: cannot write %s: %s\n", result_.id.c_str(),
                             json_path_.c_str(), error.c_str());
                return 2;
            }
            std::printf("wrote %s\n", json_path_.c_str());
        }
        return result_.pass() ? 0 : 1;
    }

    const report::ExperimentResult& result() const { return result_; }

private:
    void record_leg(const std::string& name,
                    std::chrono::steady_clock::time_point start) {
        report::ProvenanceLeg leg;
        leg.name = name;
        leg.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        leg.threads = util::default_threads();
        // stderr, not stdout: the tables on stdout are byte-identical across
        // thread counts (the documented determinism check diffs them); wall
        // seconds are not.
        std::fprintf(stderr, "[leg] %-40s %.3fs on %llu thread(s)\n", name.c_str(),
                     leg.wall_seconds, static_cast<unsigned long long>(leg.threads));
        legs_.push_back(std::move(leg));
    }

    void push(report::Check c) {
        for (const auto& existing : result_.checks) {
            if (existing.id == c.id) {
                std::fprintf(stderr, "%s: duplicate check id \"%s\"\n", result_.id.c_str(),
                             c.id.c_str());
                std::abort();
            }
        }
        result_.checks.push_back(std::move(c));
    }

    report::ExperimentResult result_;
    std::string json_path_;
    std::vector<report::ProvenanceLeg> legs_;
};

/// Evaluate `fn` over every sweep point concurrently and return the results
/// in input order. Each point is an independent simulation (its own machine,
/// its own cost tables via the shared cache), so the only cross-thread state
/// is the mutex-guarded CostTableCache. Output stays deterministic because
/// the caller prints from the ordered result vector, never from the workers.
template <typename Point, typename Fn>
auto parallel_sweep(const std::vector<Point>& points, Fn&& fn)
    -> std::vector<decltype(fn(points[0]))> {
    using Result = decltype(fn(points[0]));
    std::vector<Result> results(points.size());
    util::parallel_for(points.size(),
                       [&](std::size_t i) { results[i] = fn(points[i]); });
    return results;
}

/// The paper's case-study access functions.
inline std::vector<model::AccessFunction> case_study_functions() {
    return {model::AccessFunction::polynomial(0.35), model::AccessFunction::polynomial(0.5),
            model::AccessFunction::logarithmic()};
}

}  // namespace dbsp::bench
