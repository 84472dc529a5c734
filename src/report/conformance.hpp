#pragma once

/// \file conformance.hpp
/// The combined conformance report: all 13 experiments' results merged into
/// one artifact (BENCH_experiments.json), a Markdown dashboard mapping each
/// paper claim to its measured exponent/band and verdict, and the regression
/// gate that compares a fresh report against a committed baseline under
/// per-metric tolerances (dbsp_report --check).
///
/// Gate semantics — a run fails the gate if any of:
///  * a conformance check fails outright in the current report (a theorem's
///    verdict broke at head);
///  * a fitted exponent drifted from the baseline by more than
///    `exponent_drift` (absolute, in exponent units);
///  * a band/min/max check's measured value drifted by more than
///    `value_drift_rel` (relative);
///  * an experiment or check present in the baseline is missing from the
///    current report (unless `subset_ok`, for CI runs that exercise a fast
///    subset);
///  * the microbenchmark words/sec dropped more than `perf_drop_pct` percent
///    below the baseline (only when both sides carry micro data — model-cost
///    conformance is deterministic, wall-clock is not, so the perf gate has
///    its own, wider tolerance).

#include <optional>
#include <string>
#include <vector>

#include "report/experiment.hpp"

namespace dbsp::report {

/// The subset of BENCH_micro.json the gate reasons about (the raw document
/// is preserved alongside inside the combined artifact).
struct MicroData {
    Json raw;
    double bulk_words_per_sec = 0.0;
    double speedup = 0.0;
    double tracing_overhead_pct = 0.0;
    /// A/A re-measurement of the untraced leg: the LocalitySink disabled
    /// path *is* the null-sink path, so this is its measured overhead.
    double locality_overhead_pct = 0.0;
    /// Overhead of actually attaching a LocalitySink (exact reuse-distance
    /// engine on every reference), paired-round median.
    double locality_enabled_overhead_pct = 0.0;
    /// Same with the SHARDS-sampled engine at the production rate.
    double locality_sampled_overhead_pct = 0.0;
    /// |sampled score - exact score| over one rep of the E3 workload: the
    /// SHARDS estimation error at the production rate.
    double locality_sampled_score_abs_err = 0.0;
    /// Gated booleans; each reads false when its key is missing (fail closed).
    bool costs_bit_identical = false;
    /// AggregateSink attributed words matched words_touched on every rep.
    bool trace_counts_exact = false;
    /// LocalitySink reference counts matched words_touched on every rep.
    bool locality_counts_exact = false;
    /// The counter leg charged the same cost as the untraced leg, bit for
    /// bit — arming perf counters must be pure observation. Computed (and
    /// gated) regardless of whether the PMU was actually available.
    bool counters_cost_bit_identical = false;
    /// Whether the hardware-counter snapshot in the document carries live
    /// readings; informational (never gated — a counter-less host is a
    /// waiver, not a failure). `counters_reason` explains unavailability.
    bool counters_available = false;
    std::string counters_reason;

    static std::optional<MicroData> from_json(const Json& j, std::string* error);
};

struct CombinedReport {
    Provenance provenance;
    std::vector<ExperimentResult> experiments;
    std::optional<MicroData> micro;

    const ExperimentResult* find(const std::string& id) const;
    bool pass() const;

    Json to_json() const;
    static std::optional<CombinedReport> from_json(const Json& j, std::string* error);

    /// Render the Markdown conformance dashboard. When \p baseline is given,
    /// each check row carries its measured-value delta vs the baseline.
    std::string markdown(const CombinedReport* baseline) const;
};

struct GateOptions {
    double exponent_drift = 0.05;
    /// Default relative drift allowance for band/min/max checks. A baseline
    /// check that declares its own non-zero tolerance is instead allowed
    /// that much *absolute* drift (see bench::Experiment::check_min) — the
    /// escape hatch for exact-but-fold-order-sensitive values like locality
    /// scores, whose third decimal moves whenever an engine change regroups
    /// the identical event stream.
    double value_drift_rel = 0.25;
    double perf_drop_pct = 35.0;
    /// Absolute ceilings on the enabled-path locality overheads (percent
    /// throughput loss vs the untraced leg on bench_micro's E3 workload) and
    /// on the sampled-mode score error. The untraced leg charges bulk ops in
    /// closed form without touching their words (~1 ns per charged word), so
    /// any per-reference measurement is a large multiple of it; these
    /// ceilings are the measured paired-round medians (~3050% exact, ~250%
    /// sampled @0.01, ~0.21 score error) plus headroom for machine-to-
    /// machine variance — honest measured bounds, not aspirations. See
    /// EXPERIMENTS.md "Locality profiling cost" for the floor decomposition.
    double locality_enabled_overhead_max_pct = 4000.0;
    double locality_sampled_overhead_max_pct = 400.0;
    double locality_sampled_score_err_max = 0.5;
    bool subset_ok = false;
};

/// Empty result == gate passes. Each entry is one human-readable violation.
std::vector<std::string> gate_violations(const CombinedReport& current,
                                         const CombinedReport& baseline,
                                         const GateOptions& options);

}  // namespace dbsp::report
