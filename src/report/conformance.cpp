#include "report/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dbsp::report {

namespace {

/// The micro document's gated booleans: key, field, violation when false.
struct GatedFlag {
    const char* key;
    bool MicroData::*field;
    const char* broken;
};
constexpr GatedFlag kGatedFlags[] = {
    {"costs_bit_identical", &MicroData::costs_bit_identical,
     "bulk and per-word paths no longer charge bit-identical costs"},
    {"trace_counts_exact", &MicroData::trace_counts_exact,
     "AggregateSink attributed words no longer match words_touched"},
    {"locality_counts_exact", &MicroData::locality_counts_exact,
     "LocalitySink reference counts no longer match words_touched"},
    {"costs_bit_identical_counters", &MicroData::counters_cost_bit_identical,
     "arming hardware counters changed the charged cost (counters must be pure "
     "observation)"},
};

}  // namespace

std::optional<MicroData> MicroData::from_json(const Json& j, std::string* error) {
    if (!j.is_object()) {
        if (error != nullptr) *error = "micro document is not an object";
        return std::nullopt;
    }
    MicroData m;
    m.raw = j;
    const Json& bulk = j["measurements"]["bulk_with_cache"];
    if (!bulk["words_per_sec"].is_number()) {
        if (error != nullptr) {
            *error = "micro document lacks measurements.bulk_with_cache.words_per_sec";
        }
        return std::nullopt;
    }
    m.bulk_words_per_sec = bulk["words_per_sec"].as_double();
    m.speedup = j["speedup_bulk_vs_per_word"].as_double(0.0);
    m.tracing_overhead_pct = j["tracing_overhead_pct"].as_double(0.0);
    m.locality_overhead_pct = j["locality_overhead_pct"].as_double(0.0);
    m.locality_enabled_overhead_pct = j["locality_enabled_overhead_pct"].as_double(0.0);
    m.locality_sampled_overhead_pct = j["locality_sampled_overhead_pct"].as_double(0.0);
    m.locality_sampled_score_abs_err =
        j["locality_sampled_score_abs_err"].as_double(0.0);
    for (const GatedFlag& g : kGatedFlags) m.*g.field = j[g.key].as_bool(false);
    m.counters_available = j["counters"]["available"].as_bool(false);
    m.counters_reason = j["counters"]["reason"].as_string();
    return m;
}

const ExperimentResult* CombinedReport::find(const std::string& id) const {
    for (const auto& e : experiments) {
        if (e.id == id) return &e;
    }
    return nullptr;
}

bool CombinedReport::pass() const {
    for (const auto& e : experiments) {
        if (!e.pass()) return false;
    }
    if (micro) {
        for (const GatedFlag& g : kGatedFlags) {
            if (!(*micro.*g.field)) return false;
        }
    }
    return true;
}

Json CombinedReport::to_json() const {
    Json j = Json::object();
    j.set("schema", kCombinedSchema);
    j.set("provenance", provenance.to_json());
    Json exps = Json::array();
    // Per-experiment metrics snapshots are meaningful only in the process
    // that ran the experiment; the combined artifact records each
    // experiment's result plus one top-level snapshot from the merge run.
    for (const auto& e : experiments) exps.push_back(e.to_json(provenance, false));
    j.set("experiments", std::move(exps));
    if (micro) j.set("micro", micro->raw);
    std::size_t total_checks = 0, passed_checks = 0;
    for (const auto& e : experiments) {
        total_checks += e.checks.size();
        for (const auto& c : e.checks) passed_checks += c.pass ? 1 : 0;
    }
    j.set("checks_total", total_checks);
    j.set("checks_passed", passed_checks);
    j.set("pass", pass());
    return j;
}

std::optional<CombinedReport> CombinedReport::from_json(const Json& j, std::string* error) {
    if (!j.is_object()) {
        if (error != nullptr) *error = "combined report is not an object";
        return std::nullopt;
    }
    if (j.contains("schema") && j["schema"].as_string() != kCombinedSchema) {
        if (error != nullptr) *error = "unsupported schema \"" + j["schema"].as_string() + "\"";
        return std::nullopt;
    }
    CombinedReport r;
    r.provenance = Provenance::from_json(j["provenance"]);
    if (!j["experiments"].is_array()) {
        if (error != nullptr) *error = "missing experiments array";
        return std::nullopt;
    }
    for (const Json& ej : j["experiments"].items()) {
        auto e = ExperimentResult::from_json(ej, error);
        if (!e) return std::nullopt;
        if (r.find(e->id) != nullptr) {
            if (error != nullptr) *error = "duplicate experiment id \"" + e->id + "\"";
            return std::nullopt;
        }
        r.experiments.push_back(std::move(*e));
    }
    if (j.contains("micro")) {
        auto m = MicroData::from_json(j["micro"], error);
        if (!m) return std::nullopt;
        r.micro = std::move(*m);
    }
    return r;
}

namespace {

std::string fmt(double v) {
    char buf[48];
    if (v == 0.0) return "0";
    const double a = std::fabs(v);
    if (a >= 1e6 || a < 1e-3) {
        std::snprintf(buf, sizeof buf, "%.3e", v);
    } else {
        std::snprintf(buf, sizeof buf, "%.3f", v);
    }
    return buf;
}

const Check* find_check(const ExperimentResult& e, const std::string& id) {
    for (const auto& c : e.checks) {
        if (c.id == id) return &c;
    }
    return nullptr;
}

/// Series named "table:<group>:<x header>:<column header>" render as data
/// tables on the dashboard (bench_e14 ships its per-level hit ratios this
/// way). Consecutive series with the same group and identical xs merge into
/// one multi-column table.
struct TableName {
    std::string group;
    std::string x_header;
    std::string column;
};

bool parse_table_name(const std::string& name, TableName& out) {
    if (name.rfind("table:", 0) != 0) return false;
    const std::size_t a = name.find(':', 6);
    if (a == std::string::npos) return false;
    const std::size_t b = name.find(':', a + 1);
    if (b == std::string::npos) return false;
    out.group = name.substr(6, a - 6);
    out.x_header = name.substr(a + 1, b - a - 1);
    out.column = name.substr(b + 1);
    return true;
}

void render_table_series(const ExperimentResult& e, std::string& out) {
    std::size_t i = 0;
    while (i < e.series.size()) {
        TableName first;
        if (!parse_table_name(e.series[i].name, first)) {
            ++i;
            continue;
        }
        std::size_t j = i + 1;
        std::vector<const Series*> cols = {&e.series[i]};
        TableName next;
        while (j < e.series.size() && parse_table_name(e.series[j].name, next) &&
               next.group == first.group && e.series[j].xs == e.series[i].xs) {
            cols.push_back(&e.series[j]);
            ++j;
        }
        out += "\n**" + first.group + "**\n\n";
        out += "| " + first.x_header + " |";
        std::string rule = "|---|";
        for (const Series* s : cols) {
            TableName tn;
            parse_table_name(s->name, tn);
            out += " " + tn.column + " |";
            rule += "---|";
        }
        out += "\n" + rule + "\n";
        for (std::size_t r = 0; r < e.series[i].xs.size(); ++r) {
            out += "| " + fmt(e.series[i].xs[r]) + " |";
            for (const Series* s : cols) out += " " + fmt(s->ys[r]) + " |";
            out += "\n";
        }
        i = j;
    }
}

}  // namespace

std::string CombinedReport::markdown(const CombinedReport* baseline) const {
    std::string out;
    out += "# Conformance dashboard\n\n";
    out += "Paper: *Translating Submachine Locality into Locality of Reference*.\n";
    out += "Each row is one machine-checked claim: the measured exponent/band from\n";
    out += "exact model costs vs the closed-form prediction, under the declared\n";
    out += "tolerance. Generated by `dbsp_report`.\n\n";
    out += "- git: `" + provenance.git_sha + "`  build: " + provenance.build_type +
           "  compiler: " + provenance.compiler + "\n";
    out += "- generated: " + provenance.timestamp + "  threads: " +
           std::to_string(provenance.threads) + "\n";
    if (baseline != nullptr) {
        out += "- baseline: `" + baseline->provenance.git_sha + "` (" +
               baseline->provenance.timestamp + ")\n";
    }
    // A waived check is forced to pass; the headline counts it apart so the
    // pass count never includes claims nothing measured.
    std::size_t total = 0, passed = 0, waived = 0;
    for (const auto& e : experiments) {
        total += e.checks.size();
        for (const auto& c : e.checks) {
            if (c.waived) {
                ++waived;
            } else if (c.pass) {
                ++passed;
            }
        }
    }
    out += "\n**" + std::to_string(passed) + "/" + std::to_string(total) + " checks pass, " +
           std::to_string(waived) + " waived, " + std::to_string(total - passed - waived) +
           " fail** across " + std::to_string(experiments.size()) + " experiments.\n";

    for (const auto& e : experiments) {
        out += "\n## " + e.title + " — " + (e.pass() ? "PASS" : "**FAIL**") + "\n\n";
        out += "*" + e.claim + "*\n\n";
        out += "| check | kind | measured | predicted | tolerance | R² | Δ vs baseline | verdict |\n";
        out += "|---|---|---|---|---|---|---|---|\n";
        const ExperimentResult* base_exp =
            baseline != nullptr ? baseline->find(e.id) : nullptr;
        for (const auto& c : e.checks) {
            std::string delta = "—";
            if (base_exp != nullptr) {
                if (const Check* bc = find_check(*base_exp, c.id)) {
                    delta = fmt(c.measured - bc->measured);
                }
            }
            const std::string verdict =
                c.waived ? "waived (" + c.waive_reason + ")"
                         : (c.pass ? std::string("pass") : std::string("**FAIL**"));
            out += "| " + c.label + " | " + c.kind + " | " +
                   (c.waived ? std::string("—") : fmt(c.measured)) + " | " +
                   fmt(c.predicted) + " | " + fmt(c.tolerance) + " | " +
                   (c.kind == "exponent" ? fmt(c.r_squared) : std::string("—")) + " | " +
                   delta + " | " + verdict + " |\n";
        }
        render_table_series(e, out);
    }

    if (micro) {
        out += "\n## Harness microbenchmark (wall-clock, not a paper claim)\n\n";
        out += "- bulk path: " + fmt(micro->bulk_words_per_sec) + " words/s\n";
        out += "- bulk-vs-per-word speedup: " + fmt(micro->speedup) + "x\n";
        out += "- tracing overhead (AggregateSink attached): " +
               fmt(micro->tracing_overhead_pct) + "%\n";
        out += "- locality profiling overhead: disabled path " +
               fmt(micro->locality_overhead_pct) + "% (A/A re-measurement of the "
               "null-sink leg), exact engine " +
               fmt(micro->locality_enabled_overhead_pct) + "%, sampled engine " +
               fmt(micro->locality_sampled_overhead_pct) + "% (score abs err " +
               fmt(micro->locality_sampled_score_abs_err) + ")\n";
        out += std::string("- costs bit-identical: ") +
               (micro->costs_bit_identical ? "yes" : "**NO**") + ", trace counts exact: " +
               (micro->trace_counts_exact ? "yes" : "**NO**") + ", locality counts exact: " +
               (micro->locality_counts_exact ? "yes" : "**NO**") +
               ", counter leg cost bit-identical: " +
               (micro->counters_cost_bit_identical ? "yes" : "**NO**") + "\n";
        out += std::string("- hardware counters: ") +
               (micro->counters_available
                    ? "available (multiplex-corrected snapshot in artifact)"
                    : "unavailable" + (micro->counters_reason.empty()
                                           ? std::string()
                                           : " (" + micro->counters_reason + ")")) +
               "\n";
        if (baseline != nullptr && baseline->micro) {
            const double base = baseline->micro->bulk_words_per_sec;
            if (base > 0.0) {
                out += "- words/s vs baseline: " +
                       fmt(100.0 * (micro->bulk_words_per_sec - base) / base) + "%\n";
            }
        }
    }
    return out;
}

std::vector<std::string> gate_violations(const CombinedReport& current,
                                         const CombinedReport& baseline,
                                         const GateOptions& options) {
    std::vector<std::string> violations;
    const auto violation = [&violations](std::string msg) {
        violations.push_back(std::move(msg));
    };

    for (const auto& e : current.experiments) {
        for (const auto& c : e.checks) {
            if (!c.pass) {
                violation(e.id + "/" + c.id + ": conformance check FAILED (" + c.label +
                          ": measured " + fmt(c.measured) + ", predicted " + fmt(c.predicted) +
                          ", tolerance " + fmt(c.tolerance) + ")");
            }
        }
    }

    for (const auto& base_exp : baseline.experiments) {
        const ExperimentResult* cur_exp = current.find(base_exp.id);
        if (cur_exp == nullptr) {
            if (!options.subset_ok) {
                violation(base_exp.id + ": experiment present in baseline but missing from "
                                        "current report");
            }
            continue;
        }
        for (const auto& bc : base_exp.checks) {
            const Check* cc = find_check(*cur_exp, bc.id);
            if (cc == nullptr) {
                if (!options.subset_ok) {
                    violation(base_exp.id + "/" + bc.id +
                              ": check present in baseline but missing from current report");
                }
                continue;
            }
            // A waived side has no measurement to drift against: a check
            // waived at baseline (recorded on a counter-less machine) or at
            // head (counters denied in this run) is auto-excused from the
            // drift rules. The unconditional !pass rule above still fires
            // for non-waived failures.
            if (bc.waived || cc->waived) continue;
            if (bc.kind == "exponent") {
                const double drift = std::fabs(cc->measured - bc.measured);
                if (drift > options.exponent_drift) {
                    violation(base_exp.id + "/" + bc.id + ": fitted exponent drifted " +
                              fmt(drift) + " from baseline (" + fmt(bc.measured) + " -> " +
                              fmt(cc->measured) + ", allowed " + fmt(options.exponent_drift) +
                              ")");
                }
            } else if ((bc.kind == "min" || bc.kind == "max") && bc.tolerance > 0.0) {
                // The check declares its own absolute drift allowance (an
                // exact but fold-order-sensitive value; see GateOptions).
                const double drift = std::fabs(cc->measured - bc.measured);
                if (drift > bc.tolerance) {
                    violation(base_exp.id + "/" + bc.id + ": measured value drifted " +
                              fmt(drift) + " from baseline (" + fmt(bc.measured) + " -> " +
                              fmt(cc->measured) + ", allowed " + fmt(bc.tolerance) +
                              " absolute)");
                }
            } else {
                const double denom = std::max(std::fabs(bc.measured), 1e-12);
                const double drift = std::fabs(cc->measured - bc.measured) / denom;
                if (drift > options.value_drift_rel) {
                    violation(base_exp.id + "/" + bc.id + ": measured value drifted " +
                              fmt(100.0 * drift) + "% from baseline (" + fmt(bc.measured) +
                              " -> " + fmt(cc->measured) + ", allowed " +
                              fmt(100.0 * options.value_drift_rel) + "%)");
                }
            }
        }
    }

    if (current.micro && baseline.micro && baseline.micro->bulk_words_per_sec > 0.0) {
        const double drop_pct = 100.0 *
                                (baseline.micro->bulk_words_per_sec -
                                 current.micro->bulk_words_per_sec) /
                                baseline.micro->bulk_words_per_sec;
        if (drop_pct > options.perf_drop_pct) {
            violation("micro: bulk-path words/sec regressed " + fmt(drop_pct) +
                      "% vs baseline (allowed " + fmt(options.perf_drop_pct) + "%)");
        }
    }

    // The gated booleans (missing = violation) and the enabled-path ceilings
    // (missing = 0, passes) are properties of the current run, not drifts.
    if (current.micro) {
        const MicroData& m = *current.micro;
        for (const GatedFlag& g : kGatedFlags) {
            if (!m.raw[g.key].is_bool()) {
                violation(std::string("micro: gated key \"") + g.key +
                          "\" missing from the current document");
            } else if (!(m.*g.field)) {
                violation(std::string("micro: ") + g.broken);
            }
        }
        if (current.micro->locality_enabled_overhead_pct >
            options.locality_enabled_overhead_max_pct) {
            violation("micro: exact locality profiling overhead " +
                      fmt(current.micro->locality_enabled_overhead_pct) +
                      "% exceeds ceiling " +
                      fmt(options.locality_enabled_overhead_max_pct) + "%");
        }
        if (current.micro->locality_sampled_overhead_pct >
            options.locality_sampled_overhead_max_pct) {
            violation("micro: sampled locality profiling overhead " +
                      fmt(current.micro->locality_sampled_overhead_pct) +
                      "% exceeds ceiling " +
                      fmt(options.locality_sampled_overhead_max_pct) + "%");
        }
        if (current.micro->locality_sampled_score_abs_err >
            options.locality_sampled_score_err_max) {
            violation("micro: sampled locality score error " +
                      fmt(current.micro->locality_sampled_score_abs_err) +
                      " exceeds ceiling " + fmt(options.locality_sampled_score_err_max));
        }
    }

    return violations;
}

}  // namespace dbsp::report
