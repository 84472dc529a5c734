/// Tests for the simulation-as-a-service layer (src/serve/): deterministic
/// runner documents, fingerprinting, the LRU result cache, strict request
/// parsing (the exit-2 CLI contract translated to structured error replies),
/// the metrics flush discipline long-lived processes need, and a full
/// socket round trip against an in-process daemon.
///
/// The byte-identity tests here are the in-process half of the serve
/// conformance story: a daemon reply must embed the exact bytes
/// serve::run_to_json produces — which is also what `dbsp_explore --spec`
/// prints — on the cache-miss and cache-hit paths alike.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "check/program_gen.hpp"
#include "check/trace_io.hpp"
#include "hmm/machine.hpp"
#include "model/cost_table.hpp"
#include "model/cost_table_cache.hpp"
#include "report/json.hpp"
#include "report/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/runner.hpp"
#include "serve/server.hpp"
#include "telemetry/logger.hpp"

namespace {

using namespace dbsp;

check::ProgramSpec corpus_spec(std::uint64_t seed) {
    return check::generate_spec(check::GenConfig{}, seed);
}

/// A run request line; \p locality (a JSON object's text) is added when set.
std::string run_line(const check::ProgramSpec& spec, const char* locality = nullptr) {
    report::Json req = report::Json::object();
    req.set("op", "run");
    req.set("spec", check::serialize_spec(spec));
    if (locality != nullptr) req.set("locality", report::Json::parse(locality).value());
    return req.dump_compact();
}

/// A spec that exercises both simulators is whichever corpus seed yields
/// v >= 2 (v=1 programs have no communication structure worth asserting on).
check::ProgramSpec interesting_spec() {
    for (std::uint64_t seed = 1; seed < 64; ++seed) {
        const check::ProgramSpec spec = corpus_spec(seed);
        if (spec.processors >= 4) return spec;
    }
    return corpus_spec(1);
}

TEST(ServeRunner, DocumentIsDeterministic) {
    const check::ProgramSpec spec = interesting_spec();
    serve::RunOptions options;
    const std::string a = serve::run_to_json(spec, options);
    const std::string b = serve::run_to_json(spec, options);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.find('\n'), std::string::npos) << "wire documents are single lines";

    // The document re-parses and carries the advertised schema + legs.
    const auto doc = report::Json::parse(a);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ((*doc)["schema"].as_string(), "dbsp-serve-result-v1");
    EXPECT_TRUE(doc->contains("hmm"));
    EXPECT_TRUE(doc->contains("bt"));
    EXPECT_GT((*doc)["hmm"]["cost"].as_double(), 0.0);
}

TEST(ServeRunner, ThreadCountNeverChangesBytes) {
    const check::ProgramSpec spec = interesting_spec();
    serve::RunOptions serial;
    serial.threads = 1;
    serve::RunOptions wide;
    wide.threads = 4;
    EXPECT_EQ(serve::run_to_json(spec, serial), serve::run_to_json(spec, wide));
    EXPECT_EQ(serve::fingerprint(spec, serial), serve::fingerprint(spec, wide));
}

TEST(ServeRunner, FingerprintSeparatesResultInfluencingOptions) {
    const check::ProgramSpec spec = interesting_spec();
    serve::RunOptions base;
    serve::RunOptions hmm_only = base;
    hmm_only.model = "hmm";
    serve::RunOptions log_f = base;
    log_f.f = model::AccessFunction::logarithmic();
    serve::RunOptions sampled = base;
    sampled.locality = locality::LocalityOptions{locality::LocalityOptions::Mode::kSampled,
                                                 0.5};
    EXPECT_NE(serve::fingerprint(spec, base), serve::fingerprint(spec, hmm_only));
    EXPECT_NE(serve::fingerprint(spec, base), serve::fingerprint(spec, log_f));
    EXPECT_NE(serve::fingerprint(spec, base), serve::fingerprint(spec, sampled));
    EXPECT_NE(serve::fingerprint(corpus_spec(2), base),
              serve::fingerprint(corpus_spec(3), base));
}

TEST(ServeRunner, SampleRateContract) {
    EXPECT_TRUE(serve::valid_sample_rate(0.01));
    EXPECT_TRUE(serve::valid_sample_rate(1.0));
    EXPECT_FALSE(serve::valid_sample_rate(0.0));
    EXPECT_FALSE(serve::valid_sample_rate(-0.5));
    EXPECT_FALSE(serve::valid_sample_rate(1.0000001));
    EXPECT_FALSE(serve::valid_sample_rate(std::numeric_limits<double>::quiet_NaN()));
    EXPECT_FALSE(serve::valid_sample_rate(std::numeric_limits<double>::infinity()));
}

TEST(ServeServer, ReplyByteIdenticalOnMissAndHit) {
    serve::Server server({});
    const check::ProgramSpec spec = interesting_spec();
    const std::string expected = serve::run_to_json(spec, serve::RunOptions{});
    const std::string line = run_line(spec);
    EXPECT_EQ(server.handle_line(line), serve::run_reply(expected, /*cached=*/false));
    EXPECT_EQ(server.handle_line(line), serve::run_reply(expected, /*cached=*/true));
    const auto stats = server.stats();
    EXPECT_EQ(stats.cache.misses, 1u);
    EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(ServeServer, NearlyFlatFunctionRunsOnTheBtAndKeepsServing) {
    // With f = x^0.01 the BT simulator's staging streams get 1-3 word
    // chunks; building their tower used to abort the whole daemon.
    const std::string text =
        "dbsp-spec v1\nv 4\nD 3\nB 2\nseed 7\nsteps 3\nlabels 1 1 0\n"
        "event 0 0 2 0 1 1\nsend 1 11 12\nevent 0 2 1 0 1 1\nsend 3 21 22\n"
        "event 1 1 1 1 1 1\nsend 0 31 32\nevent 2 3 1 1 1 0\nend\n";
    check::ProgramSpec spec;
    std::string error;
    ASSERT_TRUE(check::parse_spec(text, &spec, &error)) << error;
    serve::RunOptions options;
    options.model = "bt";
    const auto f = serve::parse_function("x^0.01", &error);
    ASSERT_TRUE(f.has_value()) << error;
    options.f = *f;
    const std::string expected = serve::run_to_json(spec, options);

    serve::Server server({});
    report::Json req = report::Json::object();
    req.set("op", "run");
    req.set("spec", check::serialize_spec(spec));
    req.set("f", "x^0.01");
    req.set("model", "bt");
    EXPECT_EQ(server.handle_line(req.dump_compact()),
              serve::run_reply(expected, /*cached=*/false));
    EXPECT_NE(server.handle_line("{\"op\":\"ping\"}").find("\"pong\":true"),
              std::string::npos);
}

TEST(ServeServer, MalformedInputsGetStructuredErrors) {
    serve::Server server({});
    const std::string valid = check::serialize_spec(corpus_spec(1));
    std::vector<std::string> bad = {
        "",
        "not json",
        "[1,2,3]",
        "{\"op\":\"run\"}",
        "{\"op\":\"nope\"}",
        "{\"op\":\"ping\",\"extra\":1}",
        "{\"op\":\"run\",\"spec\":42}",
        "{\"op\":\"run\",\"spec\":\"dbsp-spec v1\\nv 4\"}",
        std::string(64, '['),
        // duplicate header section
        "{\"op\":\"run\",\"spec\":\"dbsp-spec v1\\nv 4\\nv 4\\nB 1\\nsteps 1\\n"
        "labels 0\\nend\\n\"}",
        // geometry bombs: must reject before sizing the event matrix
        "{\"op\":\"run\",\"spec\":\"dbsp-spec v1\\nv 1152921504606846976\\nB 1\\n"
        "steps 1\\nlabels 0\\nend\\n\"}",
        // degenerate sampling rates (NaN/inf are not even JSON tokens)
        "{\"op\":\"run\",\"spec\":\"x\",\"locality\":{\"mode\":\"sampled\",\"rate\":0}}",
        "{\"op\":\"run\",\"spec\":\"x\",\"locality\":{\"mode\":\"sampled\",\"rate\":1.5}}",
        "{\"op\":\"run\",\"spec\":\"x\",\"locality\":{\"mode\":\"sampled\",\"rate\":nan}}",
        "{\"op\":\"run\",\"spec\":\"x\",\"locality\":{\"rate\":0.5}}",
    };
    // Well-formed requests whose spec parses but whose access function does
    // not: the f-validation leg specifically, so the spec string is built by
    // the JSON writer (raw newlines are not legal in literals). Exponents
    // outside (0, 1) must be refused here: AccessFunction::polynomial aborts
    // on them.
    for (const char* f : {"x^junk", "x^0", "x^1", "x^1.5", "x^-0", "x^1e999"}) {
        report::Json req = report::Json::object();
        req.set("op", "run");
        req.set("spec", valid);
        req.set("f", f);
        bad.push_back(req.dump_compact());
    }
    for (const std::string& line : bad) {
        const std::string reply = server.handle_line(line);
        const auto doc = report::Json::parse(reply);
        ASSERT_TRUE(doc.has_value()) << "unparsable reply for: " << line;
        EXPECT_FALSE((*doc)["ok"].as_bool(true)) << line;
        EXPECT_FALSE((*doc)["error"].as_string().empty()) << line;
    }
    // The daemon logic is still healthy after the barrage.
    const std::string reply = server.handle_line(run_line(corpus_spec(1)));
    const auto doc = report::Json::parse(reply);
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE((*doc)["ok"].as_bool(false));
    EXPECT_EQ(server.stats().errors, bad.size());
}

// PR-9 regression: the deterministic reply contract survives telemetry.
// A server with the full observability stack enabled (JSONL log, slow-span
// logging, span ring) must produce byte-identical "dbsp-serve-result-v1"
// replies to the plain offline runner, on the miss AND hit paths — wall
// time may never leak into the reply bytes.
TEST(ServeServer, TelemetryNeverChangesReplyBytes) {
    const std::string log_path = testing::TempDir() + "dbsp_serve_telemetry.jsonl";
    std::remove(log_path.c_str());
    serve::Server::Options options;
    options.log_path = log_path;
    options.log_level = telemetry::LogLevel::kDebug;
    options.slow_ms = 0.000001;  // every request logs its span tree
    serve::Server with_telemetry(options);
    serve::Server plain({});

    const check::ProgramSpec spec = interesting_spec();
    // Locality off, exact and sampled: with locality on, the simulator legs
    // carry the profiler as their charge sink and the span sink as their
    // phase observer at once.
    serve::RunOptions exact;
    exact.locality = locality::LocalityOptions{};
    serve::RunOptions sampled;
    sampled.locality = locality::LocalityOptions{locality::LocalityOptions::Mode::kSampled,
                                                 0.5};
    const std::vector<std::pair<serve::RunOptions, std::string>> requests = {
        {serve::RunOptions{}, run_line(spec)},
        {exact, run_line(spec, "{\"mode\":\"exact\"}")},
        {sampled, run_line(spec, "{\"mode\":\"sampled\",\"rate\":0.5}")},
    };
    for (const auto& [options, line] : requests) {
        const std::string expected = serve::run_to_json(spec, options);
        // Miss path, then hit path, on both servers: four identical documents.
        EXPECT_EQ(with_telemetry.handle_line(line),
                  serve::run_reply(expected, /*cached=*/false))
            << line;
        EXPECT_EQ(with_telemetry.handle_line(line),
                  serve::run_reply(expected, /*cached=*/true))
            << line;
        EXPECT_EQ(plain.handle_line(line), serve::run_reply(expected, /*cached=*/false))
            << line;
        EXPECT_EQ(plain.handle_line(line), serve::run_reply(expected, /*cached=*/true))
            << line;
    }
    std::remove(log_path.c_str());
}

TEST(ServeServer, SpansOpServesRecentRequestTrees) {
    serve::Server server({});
    const check::ProgramSpec spec = interesting_spec();
    server.handle_line(run_line(spec));  // miss: simulator legs run
    server.handle_line(run_line(spec));  // hit
    const std::string reply = server.handle_line("{\"op\":\"spans\",\"limit\":8}");
    const auto doc = report::Json::parse(reply);
    ASSERT_TRUE(doc.has_value()) << reply;
    EXPECT_TRUE((*doc)["ok"].as_bool());
    const auto& spans = (*doc)["spans"];
    ASSERT_TRUE(spans.is_array());
    ASSERT_EQ(spans.size(), 2u) << "both run requests recorded";

    // Newest first: spans[1] is the miss-path request. It carries the
    // parse/cache-probe/run/reply-write chain, executor leg children under
    // "run", and the bound-slack gauges mirroring the reply document.
    const report::Json& miss = spans.items()[1];
    EXPECT_EQ(miss["op"].as_string(), "run");
    EXPECT_FALSE(miss["cached"].as_bool(true));
    EXPECT_GT(miss["bound_slack"]["hmm"].as_double(), 0.0);
    EXPECT_GT(miss["bound_slack"]["bt"].as_double(), 0.0);
    // The simulator legs hold one child per phase scope (the span sink is
    // their phase observer); past the detail cap a phase folds into one
    // aggregated child of the same name.
    const std::map<std::string, std::vector<std::string>> leg_phases = {
        {"hmm", {"step-exec", "context-move", "deliver"}},
        {"bt", {"step-exec", "context-move", "deliver-sort"}},
    };
    std::vector<std::string> names;
    for (const report::Json& child : miss["spans"]["children"].items()) {
        names.push_back(child["name"].as_string());
        if (child["name"].as_string() == "run") {
            std::vector<std::string> legs;
            for (const report::Json& leg : child["children"].items()) {
                const std::string name = leg["name"].as_string();
                legs.push_back(name);
                std::vector<std::string> phases;
                for (const report::Json& phase : leg["children"].items()) {
                    phases.push_back(phase["name"].as_string());
                }
                const auto want = leg_phases.find(name);
                if (want == leg_phases.end()) continue;
                for (const std::string& phase : want->second) {
                    EXPECT_NE(std::find(phases.begin(), phases.end(), phase), phases.end())
                        << name << " leg lacks " << phase;
                }
            }
            EXPECT_EQ(legs, (std::vector<std::string>{"dbsp", "hmm", "bt"}));
        }
    }
    EXPECT_EQ(names, (std::vector<std::string>{"parse", "cache-probe", "run",
                                               "reply-write"}));

    // The hit-path request has no run-leg children and no slack gauges.
    const report::Json& hit = spans.items()[0];
    EXPECT_TRUE(hit["cached"].as_bool(false));
    EXPECT_EQ(hit["bound_slack"]["hmm"].as_double(), 0.0);
}

TEST(ServeServer, WatchOpStreamsSchemaConformantFrames) {
    serve::Server server({});
    server.handle_line(run_line(interesting_spec()));
    // interval 0: all three frames come back immediately, '\n'-joined by
    // the non-streaming wrapper.
    const std::string joined =
        server.handle_line("{\"op\":\"watch\",\"interval_ms\":0,\"count\":3}");
    std::vector<std::string> lines;
    std::size_t start = 0;
    for (;;) {
        const std::size_t nl = joined.find('\n', start);
        if (nl == std::string::npos) break;
        lines.push_back(joined.substr(start, nl - start));
        start = nl + 1;
    }
    lines.push_back(joined.substr(start));
    ASSERT_EQ(lines.size(), 3u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto frame = report::Json::parse(lines[i]);
        ASSERT_TRUE(frame.has_value()) << lines[i];
        EXPECT_EQ((*frame)["schema"].as_string(), "dbsp-telemetry-v2");
        EXPECT_EQ((*frame)["seq"].as_double(), static_cast<double>(i));
        EXPECT_TRUE((*frame)["windows"]["60s"]["p50_ms"].is_number());
        EXPECT_TRUE((*frame)["bound_slack"]["bt"]["p99"].is_number());
        EXPECT_EQ((*frame)["server"]["runs"].as_double(), 1.0);
        EXPECT_GT((*frame)["proc"]["open_fds"].as_double(), 0.0);
    }
}

TEST(ServeProtocol, WatchAndSpansValidation) {
    auto parse = [](const std::string& line) {
        serve::Request out;
        std::string error;
        return serve::parse_request(line, 1 << 20, &out, &error);
    };
    EXPECT_TRUE(parse("{\"op\":\"watch\"}"));
    EXPECT_TRUE(parse("{\"op\":\"watch\",\"interval_ms\":0,\"count\":3600}"));
    EXPECT_TRUE(parse("{\"op\":\"spans\",\"limit\":1024}"));
    // Bounds and types are strict; unknown fields rejected.
    EXPECT_FALSE(parse("{\"op\":\"watch\",\"count\":0}"));
    EXPECT_FALSE(parse("{\"op\":\"watch\",\"count\":3601}"));
    EXPECT_FALSE(parse("{\"op\":\"watch\",\"interval_ms\":60001}"));
    EXPECT_FALSE(parse("{\"op\":\"watch\",\"interval_ms\":1.5}"));
    EXPECT_FALSE(parse("{\"op\":\"watch\",\"interval_ms\":-1}"));
    EXPECT_FALSE(parse("{\"op\":\"watch\",\"count\":1e300}"));
    EXPECT_FALSE(parse("{\"op\":\"spans\",\"limit\":-1e300}"));
    EXPECT_FALSE(parse("{\"op\":\"watch\",\"limit\":4}"));
    EXPECT_FALSE(parse("{\"op\":\"spans\",\"limit\":0}"));
    EXPECT_FALSE(parse("{\"op\":\"spans\",\"limit\":1025}"));
    EXPECT_FALSE(parse("{\"op\":\"spans\",\"count\":1}"));
    EXPECT_FALSE(parse("{\"op\":\"spans\",\"limit\":\"8\"}"));

    // Defaults survive the round trip.
    serve::Request out;
    std::string error;
    ASSERT_TRUE(serve::parse_request("{\"op\":\"watch\"}", 1 << 20, &out, &error));
    EXPECT_EQ(out.op, serve::Request::Op::kWatch);
    EXPECT_EQ(out.interval_ms, 1000u);
    EXPECT_EQ(out.count, 1u);
}

TEST(ServeProtocol, SampleRateValidationMirrorsCliContract) {
    const std::string spec = check::serialize_spec(corpus_spec(1));
    auto attempt = [&](double rate) {
        report::Json req = report::Json::object();
        req.set("op", "run");
        req.set("spec", spec);
        report::Json loc = report::Json::object();
        loc.set("mode", "sampled");
        loc.set("rate", rate);
        req.set("locality", std::move(loc));
        serve::Request out;
        std::string error;
        return serve::parse_request(req.dump_compact(), 1 << 20, &out, &error);
    };
    EXPECT_TRUE(attempt(0.5));
    EXPECT_TRUE(attempt(1.0));
    EXPECT_FALSE(attempt(0.0));
    EXPECT_FALSE(attempt(-0.1));
    EXPECT_FALSE(attempt(1.5));
}

TEST(JsonLimits, DepthAndSizeAreRejectedNotRecursed) {
    // 500 levels would overflow a recursive-descent stack if not bounded.
    std::string bomb(500, '[');
    bomb += std::string(500, ']');
    std::string error;
    EXPECT_FALSE(report::Json::parse(bomb, &error).has_value());
    EXPECT_NE(error.find("depth"), std::string::npos);

    report::ParseLimits tight;
    tight.max_bytes = 8;
    error.clear();
    EXPECT_FALSE(report::Json::parse("[1,2,3,4,5,6]", &error, tight).has_value());
    EXPECT_NE(error.find("exceeds"), std::string::npos);
    EXPECT_NE(error.find("bytes"), std::string::npos);

    // Within limits, compact output round-trips.
    const auto doc = report::Json::parse("{\"a\":[1,2,{\"b\":null}],\"c\":true}");
    ASSERT_TRUE(doc.has_value());
    const auto again = report::Json::parse(doc->dump_compact());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(doc->dump(), again->dump());
}

TEST(SpecParser, GeometryCapsAndDuplicateSections) {
    check::ProgramSpec out;
    std::string error;
    // v beyond the cap: rejected before the event matrix is sized.
    EXPECT_FALSE(check::parse_spec(
        "dbsp-spec v1\nv 1152921504606846976\nB 1\nsteps 1\nlabels 0\nend\n", &out,
        &error));
    EXPECT_NE(error.find("limit"), std::string::npos);
    // steps * v beyond the cell cap.
    std::string many = "dbsp-spec v1\nv 65536\nB 1\nsteps 17\nlabels";
    for (int i = 0; i < 16; ++i) many += " 1";
    many += " 0\nend\n";
    EXPECT_FALSE(check::parse_spec(many, &out, &error));
    EXPECT_NE(error.find("limit"), std::string::npos);
    // Duplicate header sections are ambiguous -> rejected.
    EXPECT_FALSE(check::parse_spec(
        "dbsp-spec v1\nv 4\nv 4\nB 1\nsteps 1\nlabels 0\nend\n", &out, &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
    EXPECT_FALSE(check::parse_spec(
        "dbsp-spec v1\nv 4\nB 1\nsteps 1\nlabels 0\nlabels 0\nend\n", &out, &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
    // Truncated header: error, not crash.
    EXPECT_FALSE(check::parse_spec("dbsp-spec v1\nv 4\n", &out, &error));
    // The canonical serialization still parses.
    const check::ProgramSpec spec = corpus_spec(5);
    EXPECT_TRUE(check::parse_spec(check::serialize_spec(spec), &out, &error)) << error;
}

TEST(ServeMetrics, MachineFlushIsIdempotentAndDtorSafe) {
    auto& touched = report::metric_counter("hmm.words_touched");
    const std::uint64_t before = touched.value();
    {
        hmm::Machine m(model::AccessFunction::polynomial(0.5), 16);
        m.write(3, 7);
        (void)m.read(3);
        m.publish_metrics();
        EXPECT_EQ(touched.value(), before + 2) << "explicit flush publishes";
        m.publish_metrics();
        EXPECT_EQ(touched.value(), before + 2) << "second flush adds nothing";
        (void)m.read(3);
    }
    // Destructor publishes only what accumulated after the last flush.
    EXPECT_EQ(touched.value(), before + 3);
}

TEST(ServeMetrics, SnapshotEqualsSumOfPerRequestCounts) {
    // The long-lived-process regression: two back-to-back requests through
    // one server must add exactly their individual deltas to the registry
    // (no lost publishes from reuse, no double-counts from re-publishing).
    serve::Server::Options options;
    options.cache_entries = 0;  // every request recomputes
    serve::Server server(options);
    auto& touched = report::metric_counter("hmm.words_touched");

    const std::string line_a = run_line(interesting_spec());
    const std::string line_b = run_line(corpus_spec(2));

    const std::uint64_t t0 = touched.value();
    server.handle_line(line_a);
    const std::uint64_t delta_a = touched.value() - t0;
    const std::uint64_t t1 = touched.value();
    server.handle_line(line_b);
    const std::uint64_t delta_b = touched.value() - t1;
    const std::uint64_t t2 = touched.value();
    server.handle_line(line_a);
    EXPECT_EQ(touched.value() - t2, delta_a) << "repeat request re-adds its own count";
    EXPECT_EQ(touched.value() - t0, 2 * delta_a + delta_b);
    EXPECT_GT(delta_a, 0u);
}

/// Distinct access functions for filling the cost-table cache past its cap.
model::AccessFunction lru_function(double base, std::size_t i) {
    return model::AccessFunction::polynomial(base + 0.001 * static_cast<double>(i));
}

TEST(CostTableCacheLru, EvictsBeyondCapAndKeepsRecentlyUsed) {
    auto& cache = model::CostTableCache::global();
    constexpr std::size_t cap = model::CostTableCache::kMaxEntries;
    cache.clear();
    const auto baseline = cache.stats();
    // Every get is at one capacity, so since the clear each build added one
    // table and each eviction dropped one.
    const auto held = [&] {
        const auto now = cache.stats();
        return (now.builds - baseline.builds) - (now.evictions - baseline.evictions);
    };

    for (std::size_t i = 0; i < cap; ++i) cache.get(lru_function(0.311, i), 32);
    EXPECT_EQ(held(), cap);
    EXPECT_EQ(cache.stats().evictions, baseline.evictions) << "the cap itself fits";
    cache.get(lru_function(0.311, 0), 32);    // #0 most recently used, #1 least
    cache.get(lru_function(0.311, cap), 32);  // cap plus one: evicts #1, not #0
    EXPECT_EQ(held(), cap);
    EXPECT_EQ(cache.stats().evictions - baseline.evictions, 1u);

    const auto before = cache.stats();
    cache.get(lru_function(0.311, 0), 32);
    EXPECT_EQ(cache.stats().hits - before.hits, 1u) << "#0 survived the eviction";
    cache.get(lru_function(0.311, 1), 32);
    EXPECT_EQ(cache.stats().builds - before.builds, 1u) << "#1 was evicted";

    cache.clear();
}

TEST(CostTableCacheLru, EvictionNeverChangesChargedCosts) {
    auto& cache = model::CostTableCache::global();
    cache.clear();

    const auto f = model::AccessFunction::polynomial(0.47);
    const auto warm = cache.get(f, 64);
    // Cap-many other functions make f the least recently used, and evict it.
    for (std::size_t i = 0; i < model::CostTableCache::kMaxEntries; ++i) {
        cache.get(lru_function(0.48, i), 64);
    }
    const auto before = cache.stats();
    const auto rebuilt = cache.get(f, 64);  // rebuilt after eviction
    EXPECT_EQ(cache.stats().builds - before.builds, 1u) << "f was evicted";

    const model::CostTable direct(f, 64);
    for (std::uint64_t x = 0; x < 64; ++x) {
        EXPECT_EQ(rebuilt->cost(x), direct.cost(x)) << "x=" << x;
        EXPECT_EQ(warm->cost(x), direct.cost(x)) << "x=" << x;
    }

    cache.clear();
}

TEST(ServeResultCache, LruSemantics) {
    serve::ResultCache cache(2);
    EXPECT_FALSE(cache.get("a").has_value());
    cache.put("a", "A");
    cache.put("b", "B");
    EXPECT_EQ(cache.get("a").value_or(""), "A");  // a most recently used
    cache.put("c", "C");                          // evicts b
    EXPECT_FALSE(cache.get("b").has_value());
    EXPECT_EQ(cache.get("a").value_or(""), "A");
    EXPECT_EQ(cache.get("c").value_or(""), "C");
    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);

    serve::ResultCache disabled(0);
    disabled.put("a", "A");
    EXPECT_FALSE(disabled.get("a").has_value());
}

TEST(ServeSocket, FullRoundTripWithPipelining) {
    serve::Server::Options options;
    options.socket_path =
        "/tmp/dbsp_serve_test_" + std::to_string(::getpid()) + ".sock";
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.serve_forever(); });

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socket_path, &error)) << error;

    std::string reply;
    ASSERT_TRUE(client.request("{\"op\":\"ping\"}", &reply, &error)) << error;
    EXPECT_NE(reply.find("\"pong\":true"), std::string::npos);

    // Pipelined batch: miss, hit, and a malformed line, answered in order.
    const check::ProgramSpec spec = interesting_spec();
    const std::string expected = serve::run_to_json(spec, serve::RunOptions{});
    std::vector<std::string> replies;
    ASSERT_TRUE(client.request_batch({run_line(spec), run_line(spec), "garbage"},
                                     &replies, &error))
        << error;
    ASSERT_EQ(replies.size(), 3u);
    EXPECT_EQ(replies[0], serve::run_reply(expected, false));
    EXPECT_EQ(replies[1], serve::run_reply(expected, true));
    EXPECT_NE(replies[2].find("\"ok\":false"), std::string::npos);

    // Live metrics endpoint reflects the completed requests.
    ASSERT_TRUE(client.request("{\"op\":\"metrics\"}", &reply, &error)) << error;
    const auto metrics = report::Json::parse(reply);
    ASSERT_TRUE(metrics.has_value());
    EXPECT_TRUE((*metrics)["metrics"].contains("serve.requests"));

    ASSERT_TRUE(client.request("{\"op\":\"shutdown\"}", &reply, &error)) << error;
    EXPECT_NE(reply.find("\"shutdown\":true"), std::string::npos);
    client.close();
    loop.join();

    const auto stats = server.stats();
    EXPECT_EQ(stats.cache.misses, 1u);
    EXPECT_EQ(stats.cache.hits, 1u);
    EXPECT_EQ(stats.errors, 1u);
}

/// The \p key line of /proc/self/status ("VmSize", "VmRSS") in KiB; 0 when
/// unavailable.
std::uint64_t status_kib(const std::string& key) {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    const std::string prefix = key + ":";
    char line[256];
    std::uint64_t kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, prefix.c_str(), prefix.size()) == 0) {
            kib = std::strtoull(line + prefix.size(), nullptr, 10);
            break;
        }
    }
    std::fclose(f);
    return kib;
}

/// Bytes of a thread stack std::thread allocates: the default attribute's
/// stack size.
std::uint64_t default_stack_bytes() {
    pthread_attr_t attr;
    std::size_t bytes = 0;
    if (::pthread_getattr_default_np(&attr) == 0) {
        ::pthread_attr_getstacksize(&attr, &bytes);
        ::pthread_attr_destroy(&attr);
    }
    return bytes;
}

/// Private read-write mappings of exactly \p bytes in /proc/self/maps. A
/// thread stack is one such mapping of the stack size (its guard page is a
/// mapping of its own), and it stays mapped until the thread is joined.
int mappings_of_size(std::uint64_t bytes) {
    std::FILE* f = std::fopen("/proc/self/maps", "r");
    if (f == nullptr) return -1;
    int n = 0;
    char line[512];
    while (std::fgets(line, sizeof line, f) != nullptr) {
        unsigned long lo = 0, hi = 0;
        char perms[8] = {};
        if (std::sscanf(line, "%lx-%lx %7s", &lo, &hi, perms) == 3 &&
            std::strcmp(perms, "rw-p") == 0 && hi - lo == bytes) {
            ++n;
        }
    }
    std::fclose(f);
    return n;
}

TEST(ServeSocket, ClosedConnectionsReleaseTheirThreads) {
    // Each connection runs on its own thread. A daemon that joined those
    // threads only at shutdown kept every finished thread's stack mapped, so
    // its mappings and size grew with every connection it had ever accepted.
    // Count the stacks themselves: mappings of the default stack size.
    const std::uint64_t stack_bytes = default_stack_bytes();
    ASSERT_GT(stack_bytes, 0u);
    serve::Server::Options options;
    options.socket_path =
        "/tmp/dbsp_serve_reap_test_" + std::to_string(::getpid()) + ".sock";
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.serve_forever(); });

    constexpr int kWarmup = 100;
    constexpr int kConnections = 1100;
    int stacks_before = 0;
    std::uint64_t rss_before = 0;
    std::string reply;
    for (int i = 0; i < kConnections; ++i) {
        if (i == kWarmup) {
            stacks_before = mappings_of_size(stack_bytes);
            rss_before = status_kib("VmRSS");
        }
        serve::Client client;
        ASSERT_TRUE(client.connect(options.socket_path, &error)) << error;
        ASSERT_TRUE(client.request("{\"op\":\"ping\"}", &reply, &error)) << error;
    }
    const int stacks_after = mappings_of_size(stack_bytes);
    const std::uint64_t rss_after = status_kib("VmRSS");

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socket_path, &error)) << error;
    ASSERT_TRUE(client.request("{\"op\":\"shutdown\"}", &reply, &error)) << error;
    client.close();
    loop.join();

    ASSERT_GE(stacks_before, 0);
    ASSERT_GT(rss_before, 0u);
    // 1000 held stacks would add 1000 mappings; the allowance covers the
    // connection threads still in flight and glibc's cache of freed stacks.
    EXPECT_LE(stacks_after, stacks_before + 16)
        << "thread-stack mappings grew from " << stacks_before << " to " << stacks_after;
    EXPECT_LT(rss_after - std::min(rss_after, rss_before), std::uint64_t{64} * 1024)
        << "VmRSS grew from " << rss_before << " KiB to " << rss_after << " KiB";
}

/// A raw client socket, for framing tests that send bytes without the
/// newline serve::Client always appends. -1 on failure.
int connect_raw(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const auto* address = reinterpret_cast<const sockaddr*>(&addr);
    if (fd >= 0 && ::connect(fd, address, sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool write_raw(int fd, const char* data, std::size_t size) {
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n <= 0) return false;
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

std::string read_line_raw(int fd) {
    std::string line;
    char c = 0;
    while (::read(fd, &c, 1) == 1 && c != '\n') line += c;
    return line;
}

TEST(ServeSocket, OversizeLineIsDiscardedInBoundedMemory) {
    // After refusing an oversize line the daemon skips to its newline. It
    // used to buffer every skipped byte until that newline arrived (and
    // rescan them on each read), so a client streaming without newlines grew
    // the daemon by the length of the stream.
    serve::Server::Options options;
    options.socket_path =
        "/tmp/dbsp_serve_discard_test_" + std::to_string(::getpid()) + ".sock";
    options.max_request_bytes = 1024;
    serve::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread loop([&server] { server.serve_forever(); });

    const int fd = connect_raw(options.socket_path);
    ASSERT_GE(fd, 0);
    const std::vector<char> block(64 << 10, 'x');
    ASSERT_TRUE(write_raw(fd, block.data(), 2048));
    EXPECT_NE(read_line_raw(fd).find("request line exceeds size limit"), std::string::npos);

    const std::uint64_t before = status_kib("VmRSS");
    for (int i = 0; i < 256; ++i) ASSERT_TRUE(write_raw(fd, block.data(), block.size()));
    const std::string ping = "\n{\"op\":\"ping\"}\n";
    ASSERT_TRUE(write_raw(fd, ping.data(), ping.size()));
    EXPECT_NE(read_line_raw(fd).find("\"pong\":true"), std::string::npos);
    const std::uint64_t after = status_kib("VmRSS");
    ::close(fd);

    serve::Client client;
    std::string reply;
    ASSERT_TRUE(client.connect(options.socket_path, &error)) << error;
    ASSERT_TRUE(client.request("{\"op\":\"shutdown\"}", &reply, &error)) << error;
    client.close();
    loop.join();

    ASSERT_GT(before, 0u);
    // 16 MiB streamed; the bound leaves room for the read buffer and the
    // allocator's caches.
    EXPECT_LT(after - std::min(after, before), std::uint64_t{4} * 1024)
        << "VmRSS grew from " << before << " KiB to " << after << " KiB";
}

}  // namespace
