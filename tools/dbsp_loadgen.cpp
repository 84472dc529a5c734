/// dbsp_loadgen — load generator + conformance client for dbsp_serve.
///
/// Drives a daemon (optionally spawning one with --spawn) through four legs:
///   1. correctness: for every distinct spec, a cache-miss request followed
///      by a cache-hit request; each reply must be byte-identical to the
///      locally computed serve::run_to_json document (the same runner
///      dbsp_explore --spec uses), with cached=false then cached=true;
///   2. malformed barrage: canned adversarial lines (broken JSON, nesting
///      bombs, oversized geometry, degenerate sampling rates, unknown
///      fields) — every one must come back as a structured
///      {"ok":false,...} reply with the daemon still answering pings;
///   3. latency: single round-trip run requests over the warmed cache,
///      yielding the p50/p99 latency series;
///   4. batched throughput: the same requests pipelined in batches.
///
/// With --out it writes BENCH_serve.json, a dbsp-experiment-v1 artifact
/// (id "serve") whose checks are all deterministic — byte-identity
/// mismatches, unstructured error count and daemon exit status must be 0,
/// and the cache-hit ratio must reach its closed-form expectation — while
/// the wall-clock numbers (p50/p99 ms, requests/s) ride along as ungated
/// series. Throughput numbers from a 1-CPU dev container are NOT
/// comparable across machines; only the deterministic checks are.
///
/// Usage:
///   dbsp_loadgen --socket PATH [--spawn DBSP_SERVE_BIN] [--requests N]
///                [--distinct K] [--batch B] [--out FILE] [--telemetry]
///
/// --telemetry adds a fifth leg (PR 9): validate the op:"watch" frame
/// stream ("dbsp-telemetry-v1" schema) and the op:"spans" ring, and — when
/// --spawn is given — measure telemetry_overhead_pct: the daemon CPU-time
/// overhead (summed per-thread schedstat runtime, nanosecond resolution)
/// of running with --log at the default info level (the production
/// configuration) versus without, over interleaved batches of pipelined
/// cache-hit requests. CPU time rather than wall clock: contended 1-CPU
/// runners cannot resolve a 2% wall-time ceiling. Best of three passes is
/// gated at <= 2% with an absolute drift tolerance of 2
/// (see EXPERIMENTS.md). Debug-level logging (one JSONL event per request)
/// is deliberately outside the gate: on ~60 microsecond cache-hit requests
/// a per-request log line is a double-digit-percent tax by construction,
/// which is why it is not the default level.
///
/// Exit status: 0 when every check passes, 1 otherwise, 2 on bad flags.

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "check/program_gen.hpp"
#include "check/trace_io.hpp"
#include "report/experiment.hpp"
#include "report/json.hpp"
#include "report/provenance.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/runner.hpp"
#include "version.hpp"

namespace {

using namespace dbsp;

[[noreturn]] void usage(const char* self) {
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--spawn DBSP_SERVE_BIN] [--requests N]\n"
                 "          [--distinct K] [--batch B] [--out FILE] [--telemetry]\n",
                 self);
    std::exit(2);
}

[[noreturn]] void bad_arg(const char* flag, const char* value, const char* expected) {
    std::fprintf(stderr, "dbsp_loadgen: invalid %s \"%s\" (expected %s)\n", flag, value,
                 expected);
    std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* value) {
    std::uint64_t n = 0;
    const char* end = value + std::strlen(value);
    const auto [ptr, ec] = std::from_chars(value, end, n, 10);
    if (ec != std::errc{} || ptr != end || value == end) {
        bad_arg(flag, value, "an unsigned integer");
    }
    return n;
}

std::string run_line(const check::ProgramSpec& spec) {
    report::Json req = report::Json::object();
    req.set("op", "run");
    req.set("spec", check::serialize_spec(spec));
    return req.dump_compact();
}

double quantile(std::vector<double> sorted, double q) {
    if (sorted.empty()) return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(idx == 0 ? 0 : idx - 1, sorted.size() - 1)];
}

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Spawn a dbsp_serve with extra argv entries; -1 on fork failure.
pid_t spawn_daemon(const std::string& bin, const std::string& socket,
                   const std::vector<std::string>& extra) {
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    std::vector<const char*> args = {bin.c_str(), "--socket", socket.c_str()};
    for (const std::string& a : extra) args.push_back(a.c_str());
    args.push_back(nullptr);
    ::execv(bin.c_str(), const_cast<char* const*>(args.data()));
    std::perror("dbsp_loadgen: exec dbsp_serve");
    ::_exit(127);
}

bool connect_with_retry(serve::Client* client, const std::string& socket_path,
                        std::string* error) {
    for (int attempt = 0; attempt < 500; ++attempt) {
        if (client->connect(socket_path, error)) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

/// Total CPU time of a process in nanoseconds: the sum of
/// se.sum_exec_runtime over every thread (/proc/<pid>/task/*/schedstat,
/// field 1). Nanosecond resolution where /proc/<pid>/stat only offers
/// 10 ms scheduler ticks — far too coarse to gate a 2% overhead ceiling
/// on sub-second workloads. Returns 0 when schedstat is unavailable
/// (non-Linux or CONFIG_SCHEDSTATS off); callers treat that as
/// "not measurable", not as zero cost.
std::uint64_t proc_cpu_ns(pid_t pid) {
    char task_dir[64];
    std::snprintf(task_dir, sizeof(task_dir), "/proc/%d/task",
                  static_cast<int>(pid));
    DIR* d = ::opendir(task_dir);
    if (d == nullptr) return 0;
    std::uint64_t total = 0;
    while (const dirent* e = ::readdir(d)) {
        if (e->d_name[0] == '.') continue;
        char path[128];
        std::snprintf(path, sizeof(path), "%s/%s/schedstat", task_dir, e->d_name);
        std::FILE* f = std::fopen(path, "r");
        if (f == nullptr) continue;
        unsigned long long ns = 0;
        if (std::fscanf(f, "%llu", &ns) == 1) total += ns;
        std::fclose(f);
    }
    ::closedir(d);
    return total;
}

/// Shut one daemon down and reap it; true on clean exit 0.
bool stop_daemon(serve::Client* client, pid_t pid) {
    std::string reply, error;
    client->request("{\"op\":\"shutdown\"}", &reply, &error);
    client->close();
    if (pid <= 0) return true;
    int status = 0;
    return ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
}

/// The barrage: every line must produce {"ok":false,"error":...}. Comments
/// name the defense each line probes.
std::vector<std::string> malformed_lines(const std::string& valid_spec) {
    report::Json rate_high = report::Json::object();
    rate_high.set("op", "run");
    rate_high.set("spec", valid_spec);
    report::Json loc = report::Json::object();
    loc.set("mode", "sampled");
    loc.set("rate", 1.5);
    rate_high.set("locality", std::move(loc));

    report::Json rate_zero = report::Json::object();
    rate_zero.set("op", "run");
    rate_zero.set("spec", valid_spec);
    report::Json loc0 = report::Json::object();
    loc0.set("mode", "sampled");
    loc0.set("rate", 0.0);
    rate_zero.set("locality", std::move(loc0));

    std::vector<std::string> lines = {
        "this is not json",                                     // not JSON at all
        "{\"op\":\"run\"}",                                     // missing spec
        "{\"op\":\"nope\"}",                                    // unknown op
        "{\"op\":\"ping\",\"x\":1}",                            // unknown field
        "{\"op\":\"run\",\"spec\":42}",                         // wrong type
        std::string(64, '[') ,                                  // nesting bomb
        "{\"op\":\"run\",\"spec\":\"dbsp-spec v1\\nv 4\"}",     // truncated spec
        // duplicate header section
        "{\"op\":\"run\",\"spec\":\"dbsp-spec v1\\nv 4\\nv 4\\nB 1\\nsteps 1\\n"
        "labels 0\\nend\\n\"}",
        // geometry bomb: v far beyond the parser cap must error, not OOM
        "{\"op\":\"run\",\"spec\":\"dbsp-spec v1\\nv 1152921504606846976\\nB 1\\n"
        "steps 1\\nlabels 0\\nend\\n\"}",
        // degenerate sampling rates (NaN/inf don't even tokenize as JSON)
        rate_high.dump_compact(),
        rate_zero.dump_compact(),
        "{\"op\":\"run\",\"spec\":\"x\",\"locality\":{\"mode\":\"sampled\","
        "\"rate\":nan}}",
    };
    return lines;
}

}  // namespace

int main(int argc, char** argv) {
    if (dbsp::tools::handle_version_flag(argc, argv, "dbsp_loadgen")) return 0;
    std::string socket_path;
    std::string spawn_bin;
    std::string out_path;
    std::uint64_t requests = 64;
    std::uint64_t distinct = 8;
    std::uint64_t batch = 8;
    bool telemetry = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--socket") {
            socket_path = next();
        } else if (arg == "--spawn") {
            spawn_bin = next();
        } else if (arg == "--requests") {
            requests = parse_u64("--requests", next());
            if (requests == 0) bad_arg("--requests", "0", "a positive count");
        } else if (arg == "--distinct") {
            distinct = parse_u64("--distinct", next());
            if (distinct == 0) bad_arg("--distinct", "0", "a positive count");
        } else if (arg == "--batch") {
            batch = parse_u64("--batch", next());
            if (batch == 0) bad_arg("--batch", "0", "a positive count");
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--telemetry") {
            telemetry = true;
        } else {
            usage(argv[0]);
        }
    }
    if (socket_path.empty()) usage(argv[0]);

    pid_t daemon_pid = -1;
    if (!spawn_bin.empty()) {
        daemon_pid = ::fork();
        if (daemon_pid < 0) {
            std::perror("dbsp_loadgen: fork");
            return 1;
        }
        if (daemon_pid == 0) {
            ::execl(spawn_bin.c_str(), spawn_bin.c_str(), "--socket",
                    socket_path.c_str(), static_cast<char*>(nullptr));
            std::perror("dbsp_loadgen: exec dbsp_serve");
            ::_exit(127);
        }
    }

    serve::Client client;
    std::string error;
    bool connected = false;
    for (int attempt = 0; attempt < 500; ++attempt) {
        if (client.connect(socket_path, &error)) {
            connected = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!connected) {
        std::fprintf(stderr, "dbsp_loadgen: cannot connect to \"%s\": %s\n",
                     socket_path.c_str(), error.c_str());
        return 1;
    }

    // Distinct workloads: deterministic fuzz-generator specs, so the same
    // flags reproduce the same byte streams everywhere.
    check::GenConfig config;
    std::vector<check::ProgramSpec> specs;
    std::vector<std::string> expected;  // run_to_json bytes per spec
    for (std::uint64_t i = 0; i < distinct; ++i) {
        specs.push_back(check::generate_spec(config, 1000 + i));
        expected.push_back(serve::run_to_json(specs.back(), serve::RunOptions{}));
    }

    // Leg 1: byte-identity on the miss and hit paths.
    std::uint64_t mismatches = 0;
    std::vector<double> miss_latency;
    for (std::uint64_t i = 0; i < distinct; ++i) {
        const std::string line = run_line(specs[i]);
        for (int leg = 0; leg < 2; ++leg) {
            std::string reply;
            const double start = now_ms();
            if (!client.request(line, &reply, &error)) {
                std::fprintf(stderr, "dbsp_loadgen: request failed: %s\n", error.c_str());
                return 1;
            }
            if (leg == 0) miss_latency.push_back(now_ms() - start);
            const std::string want = serve::run_reply(expected[i], /*cached=*/leg == 1);
            if (reply != want) {
                ++mismatches;
                std::fprintf(stderr,
                             "dbsp_loadgen: reply mismatch for spec %llu (%s leg)\n",
                             static_cast<unsigned long long>(i),
                             leg == 0 ? "miss" : "hit");
            }
        }
    }

    // Leg 2: malformed barrage — structured errors, daemon stays up.
    std::uint64_t unstructured = 0;
    for (const std::string& line : malformed_lines(check::serialize_spec(specs[0]))) {
        std::string reply;
        if (!client.request(line, &reply, &error)) {
            std::fprintf(stderr, "dbsp_loadgen: connection died on malformed input\n");
            ++unstructured;
            if (!client.connect(socket_path, &error)) break;
            continue;
        }
        const auto doc = report::Json::parse(reply);
        if (!doc.has_value() || (*doc)["ok"].as_bool(true) ||
            (*doc)["error"].as_string().empty()) {
            ++unstructured;
            std::fprintf(stderr, "dbsp_loadgen: non-structured reply: %s\n",
                         reply.c_str());
        }
    }
    {
        std::string reply;
        if (!client.request("{\"op\":\"ping\"}", &reply, &error) ||
            reply.find("\"pong\":true") == std::string::npos) {
            std::fprintf(stderr, "dbsp_loadgen: daemon not answering after barrage\n");
            ++unstructured;
        }
    }

    // Leg 3: single round-trip latency over the warmed cache.
    std::vector<double> latency;
    for (std::uint64_t i = 0; i < requests; ++i) {
        const std::string line = run_line(specs[i % distinct]);
        std::string reply;
        const double start = now_ms();
        if (!client.request(line, &reply, &error)) {
            std::fprintf(stderr, "dbsp_loadgen: request failed: %s\n", error.c_str());
            return 1;
        }
        latency.push_back(now_ms() - start);
    }

    // Leg 4: pipelined batches.
    const double batch_start = now_ms();
    for (std::uint64_t done = 0; done < requests;) {
        const std::uint64_t n = std::min<std::uint64_t>(batch, requests - done);
        std::vector<std::string> lines;
        for (std::uint64_t k = 0; k < n; ++k) {
            lines.push_back(run_line(specs[(done + k) % distinct]));
        }
        std::vector<std::string> replies;
        if (!client.request_batch(lines, &replies, &error)) {
            std::fprintf(stderr, "dbsp_loadgen: batch failed: %s\n", error.c_str());
            return 1;
        }
        done += n;
    }
    const double batch_seconds = (now_ms() - batch_start) / 1000.0;

    // Leg 5 (--telemetry): the observability surface. Protocol validation of
    // op:"watch" / op:"spans", then the logging-overhead measurement against
    // two private daemons (with and without --log).
    std::uint64_t telemetry_bad = 0;
    double overhead_pct = 0.0;
    bool overhead_measured = false;
    if (telemetry) {
        // Watch: three fast frames, each a valid "dbsp-telemetry-v1" doc.
        if (!client.send_line("{\"op\":\"watch\",\"interval_ms\":10,\"count\":3}",
                              &error)) {
            std::fprintf(stderr, "dbsp_loadgen: watch request failed: %s\n",
                         error.c_str());
            ++telemetry_bad;
        } else {
            for (int i = 0; i < 3; ++i) {
                std::string frame_line;
                if (!client.read_reply(&frame_line, &error)) {
                    std::fprintf(stderr, "dbsp_loadgen: watch stream died: %s\n",
                                 error.c_str());
                    ++telemetry_bad;
                    break;
                }
                const auto frame = report::Json::parse(frame_line);
                bool good =
                    frame.has_value() &&
                    (*frame)["schema"].as_string() == "dbsp-telemetry-v1" &&
                    (*frame)["seq"].as_double(-1.0) == static_cast<double>(i) &&
                    (*frame)["windows"]["60s"]["qps"].is_number() &&
                    (*frame)["windows"]["60s"]["p50_ms"].is_number() &&
                    (*frame)["windows"]["60s"]["p99_ms"].is_number() &&
                    (*frame)["windows"]["60s"]["cache_hit_ratio"].is_number() &&
                    (*frame)["bound_slack"]["hmm"]["p50"].is_number() &&
                    (*frame)["bound_slack"]["bt"]["p99"].is_number() &&
                    (*frame)["server"]["requests"].is_number() &&
                    (*frame)["pool"]["workers"].is_number() &&
                    (*frame)["proc"]["open_fds"].as_double() > 0.0;
                // Counters section: always present with an availability flag;
                // event readings must appear iff the group is available, and
                // an unavailable group must say why.
                if (good) {
                    const report::Json& ctr = (*frame)["counters"];
                    if (!ctr["available"].is_bool()) {
                        good = false;
                    } else if (ctr["available"].as_bool()) {
                        // Per-event degradation is allowed (an unsupported
                        // cache event on this PMU), but each entry must say
                        // which case it is.
                        const report::Json& cyc = ctr["events"]["cycles"];
                        good = cyc["available"].is_bool() &&
                               (cyc["available"].as_bool()
                                    ? cyc["scaled"].is_number() &&
                                          cyc["duty"].is_number()
                                    : cyc["reason"].is_string());
                    } else {
                        good = ctr["reason"].is_string() &&
                               !ctr["events"]["cycles"]["scaled"].is_number();
                    }
                }
                if (!good) {
                    ++telemetry_bad;
                    std::fprintf(stderr, "dbsp_loadgen: bad telemetry frame: %s\n",
                                 frame_line.c_str());
                }
            }
        }

        // Spans: the ring must hold the run requests this client just made,
        // with leg spans and bound-slack gauges on the miss-path entries.
        // Earlier miss-path entries may have been evicted by the cache-hit
        // legs (the ring holds the most recent requests), so issue one fresh
        // miss first to guarantee a slack-bearing record near the head.
        {
            std::string reply;
            const check::ProgramSpec fresh =
                check::generate_spec(config, 9000 + distinct);
            if (!client.request(run_line(fresh), &reply, &error)) {
                std::fprintf(stderr, "dbsp_loadgen: fresh-miss run failed: %s\n",
                             error.c_str());
                ++telemetry_bad;
            }
            if (!client.request("{\"op\":\"spans\",\"limit\":64}", &reply, &error)) {
                std::fprintf(stderr, "dbsp_loadgen: spans request failed: %s\n",
                             error.c_str());
                ++telemetry_bad;
            } else {
                const auto doc = report::Json::parse(reply);
                bool good = doc.has_value() && (*doc)["ok"].as_bool() &&
                            (*doc)["spans"].is_array() &&
                            !(*doc)["spans"].items().empty();
                if (good) {
                    bool saw_slack = false;
                    for (const report::Json& r : (*doc)["spans"].items()) {
                        if (!r["id"].is_number() || !r["op"].is_string() ||
                            !r["spans"].is_object()) {
                            good = false;
                            break;
                        }
                        if (r["bound_slack"]["hmm"].as_double() > 0.0) saw_slack = true;
                    }
                    good = good && saw_slack;
                }
                if (!good) {
                    ++telemetry_bad;
                    std::fprintf(stderr, "dbsp_loadgen: bad spans reply: %s\n",
                                 reply.c_str());
                }
            }
        }

        // Bounds validation: degenerate watch/spans arguments must produce
        // structured errors, not streams.
        for (const char* line : {"{\"op\":\"watch\",\"count\":0}",
                                 "{\"op\":\"watch\",\"interval_ms\":999999}",
                                 "{\"op\":\"spans\",\"limit\":0}",
                                 "{\"op\":\"spans\",\"limit\":1.5}"}) {
            std::string reply;
            if (!client.request(line, &reply, &error) ||
                reply.find("\"ok\":false") == std::string::npos) {
                ++telemetry_bad;
                std::fprintf(stderr, "dbsp_loadgen: degenerate telemetry args "
                                     "not rejected: %s\n", line);
            }
        }

        // Overhead: paired-median wall time of identical pipelined cache-hit
        // rounds against a --log daemon (default info level: the production
        // configuration — connection lifecycle and anomaly events, no
        // per-request lines) vs an unlogged one. Interleaved rounds, median
        // ratio — robust to the shared-runner noise a mean would absorb.
        if (!spawn_bin.empty()) {
            const std::string plain_sock = socket_path + ".plain";
            const std::string logged_sock = socket_path + ".logged";
            const std::string log_file = socket_path + ".jsonl";
            const pid_t plain_pid = spawn_daemon(spawn_bin, plain_sock, {});
            const pid_t logged_pid = spawn_daemon(spawn_bin, logged_sock, {"--log", log_file});
            serve::Client plain;
            serve::Client logged;
            if (plain_pid > 0 && logged_pid > 0 &&
                connect_with_retry(&plain, plain_sock, &error) &&
                connect_with_retry(&logged, logged_sock, &error)) {
                const std::string warm = run_line(specs[0]);
                std::string reply;
                if (plain.request(warm, &reply, &error) &&
                    logged.request(warm, &reply, &error)) {
                    // The metric is daemon CPU time (summed thread
                    // schedstat runtime, nanosecond resolution), not wall
                    // clock: on a contended 1-CPU runner, wall time of
                    // ~10 ms batches is dominated by scheduling and cannot
                    // resolve a 2% ceiling. CPU time counts exactly the
                    // work each daemon did — including its logger thread —
                    // and ignores preemption. Batches still alternate
                    // daemons so both see the same machine conditions.
                    // Best-of-kPasses: overhead is a constant property of
                    // the daemon, so the lowest-noise pass estimates it —
                    // contaminated passes (IRQ ticks misattributed under
                    // contention) only ever read high.
                    constexpr int kPasses = 3;
                    constexpr int kBatches = 64;
                    constexpr int kPerBatch = 256;
                    const std::vector<std::string> lines(kPerBatch, warm);
                    std::vector<double> passes;
                    bool drove = true;
                    for (int pass = 0; pass < kPasses && drove; ++pass) {
                        const std::uint64_t plain_cpu0 = proc_cpu_ns(plain_pid);
                        const std::uint64_t logged_cpu0 = proc_cpu_ns(logged_pid);
                        for (int r = 0; r < kBatches && drove; ++r) {
                            serve::Client& first = (r % 2 == 0) ? plain : logged;
                            serve::Client& second = (r % 2 == 0) ? logged : plain;
                            std::vector<std::string> replies;
                            drove = first.request_batch(lines, &replies, &error) &&
                                    second.request_batch(lines, &replies, &error);
                        }
                        const std::uint64_t plain_cpu =
                            proc_cpu_ns(plain_pid) - plain_cpu0;
                        const std::uint64_t logged_cpu =
                            proc_cpu_ns(logged_pid) - logged_cpu0;
                        if (!drove || plain_cpu == 0) break;
                        passes.push_back((static_cast<double>(logged_cpu) /
                                              static_cast<double>(plain_cpu) -
                                          1.0) *
                                         100.0);
                    }
                    if (passes.size() == kPasses) {
                        overhead_pct = std::max(
                            0.0, *std::min_element(passes.begin(), passes.end()));
                        overhead_measured = true;
                    }
                }
            } else {
                std::fprintf(stderr,
                             "dbsp_loadgen: cannot stand up overhead daemons\n");
                ++telemetry_bad;
            }
            if (!stop_daemon(&plain, plain_pid) || !stop_daemon(&logged, logged_pid)) {
                ++telemetry_bad;
                std::fprintf(stderr, "dbsp_loadgen: overhead daemon unclean exit\n");
            }
            std::remove(log_file.c_str());
        }
    }

    // Cache accounting from the server's own stats.
    double hit_ratio = 0.0;
    {
        std::string reply;
        if (client.request("{\"op\":\"stats\"}", &reply, &error)) {
            const auto doc = report::Json::parse(reply);
            if (doc.has_value()) {
                const report::Json& cache = (*doc)["stats"]["cache"];
                const double hits = cache["hits"].as_double();
                const double misses = cache["misses"].as_double();
                if (hits + misses > 0) hit_ratio = hits / (hits + misses);
            }
        }
    }
    // Expectation: `distinct` misses from leg 1 (plus the telemetry leg's
    // one fresh miss), everything else hits.
    const double total_runs =
        static_cast<double>(2 * distinct + 2 * requests + (telemetry ? 1 : 0));
    const double misses = static_cast<double>(distinct + (telemetry ? 1 : 0));
    const double expected_ratio = (total_runs - misses) / total_runs;

    // Shutdown + exit-status check (only meaningful for a spawned daemon).
    double daemon_exit = 0.0;
    {
        std::string reply;
        client.request("{\"op\":\"shutdown\"}", &reply, &error);
        client.close();
        if (daemon_pid > 0) {
            int status = 0;
            if (::waitpid(daemon_pid, &status, 0) != daemon_pid ||
                !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                daemon_exit = 1.0;
            }
        }
    }

    const double p50 = quantile(latency, 0.50);
    const double p99 = quantile(latency, 0.99);
    const double rps = batch_seconds > 0
                           ? static_cast<double>(requests) / batch_seconds
                           : 0.0;
    std::printf("serve load: %llu requests over %llu specs  p50 %.3f ms  p99 %.3f ms  "
                "batched %.0f req/s  cache-hit %.4f (expected %.4f)\n",
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(distinct), p50, p99, rps, hit_ratio,
                expected_ratio);

    report::ExperimentResult result;
    result.id = "serve";
    result.title = "SERVE  simulation-as-a-service daemon";
    result.claim = "serve replies are byte-identical to offline runs on miss and hit "
                   "paths, malformed input yields structured errors, and the result "
                   "cache reaches its closed-form hit ratio";
    result.series.push_back({"latency_ms", [&] {
                                 std::vector<double> xs(latency.size());
                                 for (std::size_t i = 0; i < xs.size(); ++i) {
                                     xs[i] = static_cast<double>(i + 1);
                                 }
                                 return xs;
                             }(),
                             latency});
    result.series.push_back({"miss_latency_ms", [&] {
                                 std::vector<double> xs(miss_latency.size());
                                 for (std::size_t i = 0; i < xs.size(); ++i) {
                                     xs[i] = static_cast<double>(i + 1);
                                 }
                                 return xs;
                             }(),
                             miss_latency});
    result.series.push_back({"latency_quantiles_ms", {50.0, 99.0}, {p50, p99}});
    result.series.push_back({"batched_throughput_rps", {1.0}, {rps}});

    if (telemetry && overhead_measured) {
        result.series.push_back({"telemetry_overhead_pct", {1.0}, {overhead_pct}});
    }

    // A nonzero tolerance marks a check whose measured value is wall-clock
    // noisy: the conformance gate compares such checks against a committed
    // baseline with an ABSOLUTE drift allowance instead of the default 25%
    // relative band (see report::conformance).
    auto push_check = [&](const std::string& label, const std::string& kind,
                          double measured, double predicted, double tolerance = 0.0) {
        report::Check c;
        c.label = label;
        c.id = report::ExperimentResult::slugify(label);
        c.kind = kind;
        c.measured = measured;
        c.predicted = predicted;
        c.tolerance = tolerance;
        c.pass = report::Check::evaluate(kind, measured, predicted, tolerance);
        std::printf("%-52s measured %.4f (%s %.4f) [%s]\n", label.c_str(), measured,
                    kind == "max" ? "<=" : ">=", predicted, c.pass ? "pass" : "FAIL");
        result.checks.push_back(c);
    };
    push_check("byte-identity mismatches (miss+hit legs)", "max",
               static_cast<double>(mismatches), 0.0);
    push_check("unstructured replies to malformed input", "max",
               static_cast<double>(unstructured), 0.0);
    push_check("daemon exit status", "max", daemon_exit, 0.0);
    push_check("cache-hit ratio", "min", hit_ratio, expected_ratio);
    if (telemetry) {
        push_check("telemetry watch/spans protocol violations", "max",
                   static_cast<double>(telemetry_bad), 0.0);
        if (overhead_measured) {
            push_check("telemetry_overhead_pct (logged vs plain daemon)", "max",
                       overhead_pct, 2.0, /*tolerance=*/2.0);
        }
    }

    std::size_t passed = 0;
    for (const auto& c : result.checks) passed += c.pass ? 1 : 0;
    std::printf("\nserve: %zu/%zu checks pass -> %s\n", passed, result.checks.size(),
                result.pass() ? "PASS" : "FAIL");

    if (!out_path.empty()) {
        std::string write_error;
        if (!result.to_json(report::Provenance::collect(), true)
                 .save_file(out_path, &write_error)) {
            std::fprintf(stderr, "dbsp_loadgen: cannot write %s: %s\n", out_path.c_str(),
                         write_error.c_str());
            return 2;
        }
        std::printf("wrote %s\n", out_path.c_str());
    }
    return result.pass() ? 0 : 1;
}
