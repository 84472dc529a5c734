/// Tests for the observability/report layer (src/report/): the strict JSON
/// parser and writer, the ExperimentResult artifact round-trip, check
/// verdict evaluation, the combined conformance report, and the regression
/// gate that dbsp_report --check runs in CI.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "report/conformance.hpp"
#include "report/experiment.hpp"
#include "report/json.hpp"
#include "report/provenance.hpp"

namespace {

using namespace dbsp;
using report::Check;
using report::CombinedReport;
using report::ExperimentResult;
using report::GateOptions;
using report::Json;
using report::MicroData;
using report::Provenance;
using report::Series;

// --- JSON value + parser ----------------------------------------------------

TEST(Json, DumpParseRoundTripPreservesValuesAndOrder) {
    Json doc = Json::object();
    doc.set("name", "e1");
    doc.set("pi", 3.141592653589793);
    doc.set("big", std::uint64_t{1} << 52);
    doc.set("neg", -0.0625);
    doc.set("flag", true);
    doc.set("nothing", nullptr);
    Json arr = Json::array();
    arr.push_back(1);
    arr.push_back("two");
    arr.push_back(Json::object().set("k", "v"));
    doc.set("arr", std::move(arr));
    doc.set("text", std::string("quote \" backslash \\ newline \n tab \t unicode \xc3\xa9"));

    const auto parsed = Json::parse(doc.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->dump(), doc.dump());
    EXPECT_DOUBLE_EQ((*parsed)["pi"].as_double(), 3.141592653589793);
    EXPECT_DOUBLE_EQ((*parsed)["big"].as_double(), static_cast<double>(std::uint64_t{1} << 52));
    EXPECT_TRUE((*parsed)["flag"].as_bool());
    EXPECT_TRUE((*parsed)["nothing"].is_null());
    EXPECT_EQ((*parsed)["arr"].items().size(), 3u);
    EXPECT_EQ((*parsed)["text"].as_string(),
              "quote \" backslash \\ newline \n tab \t unicode \xc3\xa9");
    // Insertion order survives the round trip (members_, not a sorted map).
    EXPECT_EQ(parsed->members().front().first, "name");
    EXPECT_EQ(parsed->members().back().first, "text");
}

TEST(Json, ParserRejectsMalformedDocuments) {
    for (const char* bad : {
             "",                          // empty
             "{",                         // unterminated object
             "[1, 2",                     // unterminated array
             "{\"a\": 1,}",               // trailing comma
             "{\"a\": 1} trailing",       // trailing garbage
             "{\"a\": 1, \"a\": 2}",      // duplicate key
             "\"unterminated",            // unterminated string
             "{\"a\": 01}",               // leading zero
             "nan",                       // non-finite
             "1e999",                     // overflows to inf
             "{\"a\" 1}",                 // missing colon
             "'single'",                  // wrong quotes
             "{\"\x01\": 1}",             // control char in string
         }) {
        std::string error;
        EXPECT_FALSE(Json::parse(bad, &error).has_value()) << "accepted: " << bad;
        EXPECT_FALSE(error.empty()) << "no diagnostic for: " << bad;
    }
}

TEST(Json, ParserAcceptsEscapesAndNesting) {
    const auto j = Json::parse(R"({"s": "aé\n\t\"\\b", "n": [[1], [2, [3]]]})");
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ((*j)["s"].as_string(), "a\xc3\xa9\n\t\"\\b");
    EXPECT_DOUBLE_EQ((*j)["n"].items()[1].items()[1].items()[0].as_double(), 3.0);
}

TEST(Json, LoadFileDistinguishesMissingFromMalformed) {
    std::string error;
    EXPECT_FALSE(Json::load_file("/nonexistent/dbsp.json", &error).has_value());
    EXPECT_FALSE(error.empty());
}

// --- check evaluation -------------------------------------------------------

TEST(Check, EvaluateImplementsAllFourKinds) {
    EXPECT_TRUE(Check::evaluate("exponent", 1.52, 1.5, 0.05));
    EXPECT_FALSE(Check::evaluate("exponent", 1.58, 1.5, 0.05));
    EXPECT_TRUE(Check::evaluate("band", 1.8, 1.0, 2.0));   // spread under tolerance
    EXPECT_FALSE(Check::evaluate("band", 2.3, 1.0, 2.0));
    EXPECT_TRUE(Check::evaluate("min", 1.2, 1.1, 0.0));
    EXPECT_FALSE(Check::evaluate("min", 1.0, 1.1, 0.0));
    EXPECT_TRUE(Check::evaluate("max", 0.9, 1.0, 0.0));
    EXPECT_FALSE(Check::evaluate("max", 1.1, 1.0, 0.0));
    EXPECT_FALSE(Check::evaluate("bogus", 1.0, 1.0, 1.0));
    EXPECT_FALSE(Check::evaluate("exponent", std::nan(""), 1.5, 10.0));
}

TEST(Check, SlugifyProducesStableIds) {
    EXPECT_EQ(ExperimentResult::slugify("touching cost vs n [x^0.35]"),
              "touching-cost-vs-n-x-0-35");
    EXPECT_EQ(ExperimentResult::slugify("  Weird---Label!!  "), "weird-label");
    EXPECT_EQ(ExperimentResult::slugify("???"), "check");
}

// --- ExperimentResult round trip --------------------------------------------

ExperimentResult sample_experiment() {
    ExperimentResult e;
    e.id = "e1";
    e.title = "E1 sample";
    e.claim = "the measured exponent matches the theorem";
    Series s;
    s.name = "cost vs n";
    s.xs = {16.0, 64.0, 256.0};
    s.ys = {100.0, 1600.0, 25600.0};
    e.series.push_back(s);
    Check c;
    c.id = "slope-cost-vs-n";
    c.label = "slope: cost vs n";
    c.kind = "exponent";
    c.measured = 2.0;
    c.predicted = 2.0;
    c.tolerance = 0.05;
    c.r_squared = 1.0;
    c.max_residual = 0.001;
    c.pass = true;
    e.checks.push_back(c);
    return e;
}

TEST(ExperimentResult, JsonRoundTripIsLossless) {
    const ExperimentResult e = sample_experiment();
    const Json j = e.to_json(Provenance::collect(), /*with_metrics=*/true);
    EXPECT_EQ(j["schema"].as_string(), report::kExperimentSchema);
    EXPECT_TRUE(j["metrics"].is_object());
    EXPECT_TRUE(j["provenance"]["git_sha"].is_string());

    // Through text and back.
    const auto reparsed = Json::parse(j.dump());
    ASSERT_TRUE(reparsed.has_value());
    std::string error;
    const auto back = ExperimentResult::from_json(*reparsed, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->id, e.id);
    EXPECT_EQ(back->title, e.title);
    EXPECT_EQ(back->claim, e.claim);
    ASSERT_EQ(back->series.size(), 1u);
    EXPECT_EQ(back->series[0].xs, e.series[0].xs);
    EXPECT_EQ(back->series[0].ys, e.series[0].ys);
    ASSERT_EQ(back->checks.size(), 1u);
    EXPECT_EQ(back->checks[0].id, "slope-cost-vs-n");
    EXPECT_DOUBLE_EQ(back->checks[0].measured, 2.0);
    EXPECT_DOUBLE_EQ(back->checks[0].max_residual, 0.001);
    EXPECT_TRUE(back->checks[0].pass);
    EXPECT_TRUE(back->pass());
}

TEST(ExperimentResult, FromJsonRejectsMalformedArtifacts) {
    const ExperimentResult e = sample_experiment();
    const Json good = e.to_json(Provenance::collect(), false);
    std::string error;

    {  // wrong schema tag
        Json j = good;
        j.set("schema", "somebody-elses-schema");
        EXPECT_FALSE(ExperimentResult::from_json(j, &error).has_value());
        EXPECT_NE(error.find("schema"), std::string::npos);
    }
    {  // missing id
        Json j = Json::object();
        j.set("title", "t");
        j.set("claim", "c");
        EXPECT_FALSE(ExperimentResult::from_json(j, &error).has_value());
    }
    {  // empty checks array: an experiment that checks nothing is malformed
        Json j = good;
        j.set("checks", Json::array());
        EXPECT_FALSE(ExperimentResult::from_json(j, &error).has_value());
        EXPECT_NE(error.find("checks"), std::string::npos);
    }
    {  // check with an unknown kind
        Json j = good;
        Json checks = Json::array();
        Json c = good["checks"].items()[0];
        c.set("kind", "vibes");
        checks.push_back(std::move(c));
        j.set("checks", std::move(checks));
        EXPECT_FALSE(ExperimentResult::from_json(j, &error).has_value());
        EXPECT_NE(error.find("kind"), std::string::npos);
    }
    {  // non-numeric series entry
        Json j = good;
        Json series = Json::array();
        Json s = Json::object();
        s.set("name", "bad");
        s.set("xs", Json::array().push_back("not a number"));
        s.set("ys", Json::array().push_back(1));
        series.push_back(std::move(s));
        j.set("series", std::move(series));
        EXPECT_FALSE(ExperimentResult::from_json(j, &error).has_value());
    }
    {  // recorded pass flag contradicting the checks
        Json j = good;
        j.set("pass", false);  // checks all pass
        EXPECT_FALSE(ExperimentResult::from_json(j, &error).has_value());
        EXPECT_NE(error.find("contradicts"), std::string::npos);
    }
}

TEST(Provenance, FromJsonDefaultsMissingFields) {
    const Provenance p = Provenance::from_json(Json::object());
    EXPECT_EQ(p.git_sha, "unknown");
    EXPECT_EQ(p.threads, 0u);

    const Provenance collected = Provenance::collect();
    EXPECT_FALSE(collected.compiler.empty());
    EXPECT_GE(collected.threads, 1u);
    const Provenance round = Provenance::from_json(collected.to_json());
    EXPECT_EQ(round.git_sha, collected.git_sha);
    EXPECT_EQ(round.build_type, collected.build_type);
    EXPECT_EQ(round.timestamp, collected.timestamp);
}

// --- combined report + gate -------------------------------------------------

/// A bench_micro document carrying every gated boolean.
Json micro_doc(double words_per_sec, bool bit_identical = true,
               bool trace_counts_exact = true) {
    Json bulk = Json::object();
    bulk.set("words_per_sec", words_per_sec);
    Json measurements = Json::object();
    measurements.set("bulk_with_cache", std::move(bulk));
    Json doc = Json::object();
    doc.set("measurements", std::move(measurements));
    doc.set("speedup_bulk_vs_per_word", 5.0);
    doc.set("tracing_overhead_pct", 10.0);
    doc.set("costs_bit_identical", bit_identical);
    doc.set("trace_counts_exact", trace_counts_exact);
    doc.set("locality_counts_exact", true);
    doc.set("costs_bit_identical_counters", true);
    return doc;
}

CombinedReport sample_report() {
    CombinedReport r;
    r.provenance = Provenance::collect();
    r.experiments.push_back(sample_experiment());
    std::string error;
    auto micro = MicroData::from_json(micro_doc(1e6), &error);
    r.micro = std::move(*micro);
    return r;
}

TEST(CombinedReport, JsonRoundTripAndPassFlag) {
    const CombinedReport r = sample_report();
    EXPECT_TRUE(r.pass());
    const Json j = r.to_json();
    EXPECT_EQ(j["schema"].as_string(), report::kCombinedSchema);
    EXPECT_DOUBLE_EQ(j["checks_total"].as_double(), 1.0);
    EXPECT_TRUE(j["pass"].as_bool());

    std::string error;
    const auto back = CombinedReport::from_json(*Json::parse(j.dump()), &error);
    ASSERT_TRUE(back.has_value()) << error;
    ASSERT_EQ(back->experiments.size(), 1u);
    EXPECT_NE(back->find("e1"), nullptr);
    EXPECT_EQ(back->find("e2"), nullptr);
    ASSERT_TRUE(back->micro.has_value());
    EXPECT_DOUBLE_EQ(back->micro->bulk_words_per_sec, 1e6);
    EXPECT_TRUE(back->pass());
}

TEST(CombinedReport, FromJsonRejectsDuplicateExperiments) {
    CombinedReport r = sample_report();
    Json j = r.to_json();
    Json exps = j["experiments"];
    exps.push_back(exps.items()[0]);
    j.set("experiments", std::move(exps));
    std::string error;
    EXPECT_FALSE(CombinedReport::from_json(j, &error).has_value());
    EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(MicroData, RejectsDocumentWithoutWordsPerSec) {
    std::string error;
    EXPECT_FALSE(MicroData::from_json(Json::object(), &error).has_value());
    EXPECT_NE(error.find("words_per_sec"), std::string::npos);
    EXPECT_FALSE(MicroData::from_json(Json("not an object"), &error).has_value());
}

TEST(Gate, PassesAgainstItselfAndCatchesEachRegressionKind) {
    const CombinedReport base = sample_report();
    const GateOptions opts;
    EXPECT_TRUE(report::gate_violations(base, base, opts).empty());

    {  // exponent drift beyond tolerance
        CombinedReport cur = base;
        cur.experiments[0].checks[0].measured = 2.1;  // drift 0.1 > 0.05
        const auto v = report::gate_violations(cur, base, opts);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_NE(v[0].find("exponent drifted"), std::string::npos);
    }
    {  // non-exponent value drift, relative
        CombinedReport cur = base;
        cur.experiments[0].checks[0].kind = "band";
        cur.experiments[0].checks[0].measured = 2.0;
        cur.experiments[0].checks[0].tolerance = 10.0;
        CombinedReport b2 = base;
        b2.experiments[0].checks[0].kind = "band";
        b2.experiments[0].checks[0].measured = 1.0;
        b2.experiments[0].checks[0].tolerance = 10.0;
        const auto v = report::gate_violations(cur, b2, opts);  // 100% > 25%
        ASSERT_EQ(v.size(), 1u);
        EXPECT_NE(v[0].find("value drifted"), std::string::npos);
    }
    {  // a failing check at head is a violation even with zero drift
        CombinedReport cur = base;
        cur.experiments[0].checks[0].pass = false;
        const auto v = report::gate_violations(cur, base, opts);
        ASSERT_GE(v.size(), 1u);
        EXPECT_NE(v[0].find("FAILED"), std::string::npos);
    }
    {  // missing experiment, honoured and waived by subset_ok
        CombinedReport cur = base;
        cur.experiments.clear();
        EXPECT_EQ(report::gate_violations(cur, base, opts).size(), 1u);
        GateOptions subset = opts;
        subset.subset_ok = true;
        EXPECT_TRUE(report::gate_violations(cur, base, subset).empty());
    }
    {  // missing check within a present experiment
        CombinedReport cur = base;
        cur.experiments[0].checks[0].id = "renamed-check";
        const auto v = report::gate_violations(cur, base, opts);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_NE(v[0].find("missing from current"), std::string::npos);
        GateOptions subset = opts;
        subset.subset_ok = true;
        EXPECT_TRUE(report::gate_violations(cur, base, subset).empty());
    }
    {  // perf drop beyond the wall-clock tolerance
        CombinedReport cur = base;
        std::string error;
        cur.micro = *MicroData::from_json(micro_doc(1e6 * 0.5), &error);  // -50% < -35%
        const auto v = report::gate_violations(cur, base, opts);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_NE(v[0].find("words/sec regressed"), std::string::npos);
        GateOptions wide = opts;
        wide.perf_drop_pct = 60.0;
        EXPECT_TRUE(report::gate_violations(cur, base, wide).empty());
    }
    {  // broken cost invariants in the micro artifact
        CombinedReport cur = base;
        std::string error;
        cur.micro = *MicroData::from_json(micro_doc(1e6, false, false), &error);
        EXPECT_FALSE(cur.pass());
        const auto v = report::gate_violations(cur, base, opts);
        EXPECT_EQ(v.size(), 2u);  // bit-identical + trace counts
    }
}

TEST(Gate, MicroDocumentMissingAGatedBooleanFailsClosed) {
    // A bench_micro document that lacks a gated key (renamed, or written by
    // an older binary) must not read as passing.
    const CombinedReport base = sample_report();
    const GateOptions opts;
    const Json full = micro_doc(1e6);
    for (const char* key : {"costs_bit_identical", "trace_counts_exact",
                            "locality_counts_exact", "costs_bit_identical_counters"}) {
        Json doc = Json::object();
        for (const auto& [name, value] : full.members()) {
            if (name != key) doc.set(name, value);
        }
        std::string error;
        CombinedReport cur = base;
        cur.micro = *MicroData::from_json(doc, &error);
        EXPECT_FALSE(cur.pass()) << key;
        const auto v = report::gate_violations(cur, base, opts);
        ASSERT_EQ(v.size(), 1u) << key;
        EXPECT_NE(v[0].find(key), std::string::npos) << v[0];
        EXPECT_NE(v[0].find("missing"), std::string::npos) << v[0];
    }
}

TEST(Gate, MinCheckHonorsItsDeclaredAbsoluteDriftTolerance) {
    // A min/max check that declares a non-zero tolerance opts out of the
    // default relative-drift rule in favor of that absolute allowance — the
    // escape hatch for exact but fold-order-sensitive values like locality
    // scores (see GateOptions).
    CombinedReport base = sample_report();
    Check& bc = base.experiments[0].checks[0];
    bc.kind = "min";
    bc.measured = 0.10;
    bc.predicted = 0.05;
    bc.tolerance = 0.05;
    bc.pass = true;
    const GateOptions opts;
    {
        // 40% relative drift would trip the default rule; 0.04 absolute is
        // within the declared allowance.
        CombinedReport cur = base;
        cur.experiments[0].checks[0].measured = 0.14;
        EXPECT_TRUE(report::gate_violations(cur, base, opts).empty());
    }
    {
        CombinedReport cur = base;
        cur.experiments[0].checks[0].measured = 0.16;  // 0.06 absolute > 0.05
        const auto v = report::gate_violations(cur, base, opts);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_NE(v[0].find("absolute"), std::string::npos);
    }
    {
        // Without a declared tolerance the relative rule still applies.
        CombinedReport b2 = base;
        b2.experiments[0].checks[0].tolerance = 0.0;
        CombinedReport cur = b2;
        cur.experiments[0].checks[0].measured = 0.14;
        const auto v = report::gate_violations(cur, b2, opts);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_NE(v[0].find("value drifted"), std::string::npos);
    }
}

TEST(Gate, LocalityOverheadCeilingsAreAbsoluteBoundsOnHead) {
    const CombinedReport base = sample_report();
    const GateOptions opts;
    const auto with_locality = [&](double exact_pct, double sampled_pct,
                                   double score_err) {
        CombinedReport cur = base;
        Json doc = micro_doc(1e6);
        doc.set("locality_enabled_overhead_pct", exact_pct);
        doc.set("locality_sampled_overhead_pct", sampled_pct);
        doc.set("locality_sampled_score_abs_err", score_err);
        std::string error;
        cur.micro = *MicroData::from_json(doc, &error);
        return cur;
    };
    EXPECT_TRUE(
        report::gate_violations(with_locality(3000, 250, 0.2), base, opts).empty());
    {
        const auto v = report::gate_violations(with_locality(4500, 250, 0.2), base, opts);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_NE(v[0].find("exact locality profiling overhead"), std::string::npos);
    }
    {
        const auto v = report::gate_violations(with_locality(3000, 450, 0.2), base, opts);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_NE(v[0].find("sampled locality profiling overhead"), std::string::npos);
    }
    {
        const auto v = report::gate_violations(with_locality(3000, 250, 0.7), base, opts);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_NE(v[0].find("score error"), std::string::npos);
    }
    // The ceilings are configurable like every other gate knob.
    GateOptions tight = opts;
    tight.locality_enabled_overhead_max_pct = 1000.0;
    EXPECT_EQ(
        report::gate_violations(with_locality(3000, 250, 0.2), base, tight).size(), 1u);
}

TEST(Check, WaivedChecksRoundTripAndRejectContradictions) {
    CombinedReport r = sample_report();
    Check waived;
    waived.label = "measured L1d rank";
    waived.id = "measured-l1d-rank";
    waived.kind = "min";
    waived.predicted = 0.0;
    waived.pass = true;
    waived.waived = true;
    waived.waive_reason = "perf_event_open failed: EACCES";
    r.experiments[0].checks.push_back(waived);
    EXPECT_TRUE(r.pass());

    const Json j = r.to_json();
    std::string error;
    const auto back = CombinedReport::from_json(*Json::parse(j.dump()), &error);
    ASSERT_TRUE(back.has_value()) << error;
    const Check& c = back->experiments[0].checks[1];
    EXPECT_TRUE(c.waived);
    EXPECT_TRUE(c.pass);
    EXPECT_EQ(c.waive_reason, "perf_event_open failed: EACCES");
    // Non-waived checks must not grow the fields in their serialized form.
    EXPECT_FALSE(j["experiments"].items()[0]["checks"].items()[0].contains("waived"));

    // A waiver that still records a failure is a contradiction: waiving
    // forces pass, so such a document was hand-edited or corrupted.
    Json bad = j["experiments"].items()[0];
    Json checks = bad["checks"];
    Json broken = checks.items()[1];
    broken.set("pass", false);
    Json rebuilt = Json::array();
    rebuilt.push_back(checks.items()[0]);
    rebuilt.push_back(std::move(broken));
    bad.set("checks", std::move(rebuilt));
    bad.set("pass", false);
    EXPECT_FALSE(report::ExperimentResult::from_json(bad, &error).has_value());
    EXPECT_NE(error.find("waived"), std::string::npos);
}

TEST(Gate, WaivedChecksAreExcusedFromDriftComparison) {
    // A measured check recorded on a PMU-enabled machine vs a head run where
    // counters were denied (or vice versa): drift has no meaning when one
    // side carries no measurement, so the gate skips the pair entirely.
    CombinedReport base = sample_report();
    Check& bc = base.experiments[0].checks[0];
    bc.kind = "min";
    bc.measured = 0.8;
    bc.tolerance = 0.0;
    const GateOptions opts;
    {  // head waived, baseline measured: huge nominal drift, no violation
        CombinedReport cur = base;
        Check& cc = cur.experiments[0].checks[0];
        cc.measured = 0.0;
        cc.pass = true;
        cc.waived = true;
        cc.waive_reason = "disabled by DBSP_NO_PERF";
        EXPECT_TRUE(report::gate_violations(cur, base, opts).empty());
    }
    {  // baseline waived, head measured: same
        CombinedReport b2 = base;
        Check& wb = b2.experiments[0].checks[0];
        wb.measured = 0.0;
        wb.pass = true;
        wb.waived = true;
        wb.waive_reason = "disabled by DBSP_NO_PERF";
        CombinedReport cur = base;
        cur.experiments[0].checks[0].measured = 123.0;
        EXPECT_TRUE(report::gate_violations(cur, b2, opts).empty());
    }
    {  // neither waived: the drift rule still bites
        CombinedReport cur = base;
        cur.experiments[0].checks[0].measured = 123.0;
        EXPECT_EQ(report::gate_violations(cur, base, opts).size(), 1u);
    }
}

TEST(Gate, CounterLegCostIdentityIsGatedAndAvailabilityIsNot) {
    const CombinedReport base = sample_report();
    const GateOptions opts;
    {
        // Counters unavailable is a waiver, never a violation.
        CombinedReport cur = base;
        Json doc = micro_doc(1e6);
        Json counters = Json::object();
        counters.set("available", false);
        counters.set("reason", "perf_event_open failed: ENOENT");
        doc.set("counters", std::move(counters));
        std::string error;
        cur.micro = *MicroData::from_json(doc, &error);
        EXPECT_FALSE(cur.micro->counters_available);
        EXPECT_EQ(cur.micro->counters_reason, "perf_event_open failed: ENOENT");
        EXPECT_TRUE(cur.pass());
        EXPECT_TRUE(report::gate_violations(cur, base, opts).empty());
    }
    {
        // The counter leg charging a different cost is a hard violation
        // regardless of counter availability: observation changed behavior.
        CombinedReport cur = base;
        Json doc = micro_doc(1e6);
        doc.set("costs_bit_identical_counters", false);
        std::string error;
        cur.micro = *MicroData::from_json(doc, &error);
        EXPECT_FALSE(cur.pass());
        const auto v = report::gate_violations(cur, base, opts);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_NE(v[0].find("hardware counters"), std::string::npos);
    }
}

TEST(Gate, MarkdownDashboardCarriesVerdictsAndBaselineDeltas) {
    const CombinedReport base = sample_report();
    CombinedReport cur = base;
    cur.experiments[0].checks[0].measured = 2.04;
    const std::string md = cur.markdown(&base);
    EXPECT_NE(md.find("# Conformance dashboard"), std::string::npos);
    EXPECT_NE(md.find("E1 sample"), std::string::npos);
    EXPECT_NE(md.find("1/1 checks pass"), std::string::npos);
    EXPECT_NE(md.find("0.040"), std::string::npos);  // delta vs baseline
    EXPECT_NE(md.find("words/s"), std::string::npos);
    const std::string md_nobase = cur.markdown(nullptr);
    EXPECT_EQ(md_nobase.find("baseline:"), std::string::npos);

    // Waived checks render their reason and suppress the measured value.
    Check waived;
    waived.label = "measured L1d rank";
    waived.id = "measured-l1d-rank";
    waived.kind = "min";
    waived.pass = true;
    waived.waived = true;
    waived.waive_reason = "no PMU";
    cur.experiments[0].checks.push_back(waived);
    const std::string md_waived = cur.markdown(&base);
    EXPECT_NE(md_waived.find("waived (no PMU)"), std::string::npos);
    // The headline counts the waived check apart from the passes.
    EXPECT_NE(md_waived.find("1/2 checks pass, 1 waived, 0 fail"), std::string::npos);
}

}  // namespace
