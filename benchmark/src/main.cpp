/// dbsp_bench — the repository benchmark (declared in BENCHMARK.json).
///
/// Five seeded workloads over the simulators, the locality profiler and the
/// serve daemon; see benchmark/README.md for why each exists.
///
/// Usage:
///   dbsp_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
///   dbsp_bench [--workload all] [--repeat N] [--seed S] [--seconds T] [--trace 0|1]
///   dbsp_bench --quick ...                    (0.5 s per workload)
///   dbsp_bench --workload NAME --write-golden (seed 1 only)
/// Paths: --out DIR (spans files, daemon socket; default .bench_build/out),
///        --golden FILE, --serve-bin FILE.
///
/// One workload runs in this process, pinned to one CPU together with the
/// daemon it starts, and prints readable lines, then, as the last line of
/// stdout, {"correct","attempted","failed","metrics"}: the end-to-end
/// metrics, or with --trace 1 the per-layer metrics. `all` runs
/// each workload in its own child process, one after another; --repeat N
/// does that N times (seeds S..S+N-1, order reversed every other time) and
/// prints median and quartiles per metric and workload, flagging spreads
/// wider than the metric's bound in BENCHMARK.json.
///
/// Exit status: 0 when every output is correct, 1 otherwise, 2 on bad flags.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "perf/counters.hpp"
#include "report/provenance.hpp"

extern char** environ;

namespace {

using bench::Clock;
using dbsp::report::Json;

const std::vector<std::string> kWorkloads = {"hmm-sim", "bt-sim", "profile-exact",
                                             "profile-sampled", "serve-mix"};
constexpr double kQuickSeconds = 0.5;

struct Flags {
    std::string workload = "all";
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool quick = false;
    std::uint64_t repeat = 0;
    bool write_golden = false;
    std::string out = ".bench_build/out";
    std::string golden = DBSP_BENCH_SOURCE_DIR "/golden/seed1.json";
    std::string serve_bin = DBSP_BENCH_SERVE_BIN;
};

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: dbsp_bench [--workload NAME|all] [--seed S] [--seconds T]\n"
                 "                  [--trace 0|1] [--quick] [--repeat N] [--write-golden]\n"
                 "                  [--out DIR] [--golden FILE] [--serve-bin FILE]\n"
                 "workloads: hmm-sim bt-sim profile-exact profile-sampled serve-mix\n");
    std::exit(2);
}

[[noreturn]] void bad_arg(const char* flag, const std::string& value, const char* expected) {
    std::fprintf(stderr, "dbsp_bench: invalid %s \"%s\" (expected %s)\n", flag, value.c_str(),
                 expected);
    std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const std::string& value) {
    std::uint64_t n = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, n, 10);
    if (ec != std::errc{} || ptr != end || value.empty()) {
        bad_arg(flag, value, "an unsigned integer");
    }
    return n;
}

Flags parse_flags(int argc, char** argv) {
    Flags f;
    bool seconds_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        if (arg == "--workload") {
            f.workload = next();
            bool known = f.workload == "all";
            for (const std::string& w : kWorkloads) known = known || f.workload == w;
            if (!known) bad_arg("--workload", f.workload, "a workload name or all");
        } else if (arg == "--seed") {
            f.seed = parse_u64("--seed", next());
        } else if (arg == "--seconds") {
            const std::string value = next();
            char* end = nullptr;
            f.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !std::isfinite(f.seconds) ||
                f.seconds <= 0.0 || f.seconds > 3600.0) {
                bad_arg("--seconds", value, "a duration in (0, 3600]");
            }
            seconds_given = true;
        } else if (arg == "--trace") {
            // A bare --trace means --trace 1.
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                const std::string value = next();
                if (value != "0" && value != "1") bad_arg("--trace", value, "0 or 1");
                f.trace = value == "1";
            } else {
                f.trace = true;
            }
        } else if (arg == "--quick") {
            f.quick = true;
        } else if (arg == "--repeat") {
            f.repeat = parse_u64("--repeat", next());
            if (f.repeat == 0) bad_arg("--repeat", "0", "a positive count");
        } else if (arg == "--write-golden") {
            f.write_golden = true;
        } else if (arg == "--out") {
            f.out = next();
        } else if (arg == "--golden") {
            f.golden = next();
        } else if (arg == "--serve-bin") {
            f.serve_bin = next();
        } else {
            std::fprintf(stderr, "dbsp_bench: unknown flag \"%s\"\n", arg.c_str());
            usage();
        }
    }
    if (f.quick && !seconds_given) f.seconds = kQuickSeconds;
    if (f.write_golden && f.seed != 1) {
        bad_arg("--seed", std::to_string(f.seed), "1 with --write-golden");
    }
    return f;
}

/// Measure the default configuration only: no DBSP_* knob reaches this
/// process or the daemon it spawns.
void clean_environment() {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("DBSP_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string& name : names) ::unsetenv(name.c_str());
}

Json provenance(const Flags& flags, const std::vector<std::string>& order) {
    Json j = dbsp::report::Provenance::collect().to_json();
    j.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    const dbsp::perf::CounterGroup counters;
    j.set("counters_available", counters.available());
    if (!counters.available()) j.set("counters_reason", counters.reason());
    j.set("seed", flags.seed);
    j.set("seconds", flags.seconds);
    Json ord = Json::array();
    for (const std::string& w : order) ord.push_back(w);
    j.set("workload_order", std::move(ord));
    j.set("serve_mix", bench::serve_mix_shape());
    return j;
}

/// Seed 1 is checked against (or, with --write-golden, written to) the
/// golden file; other seeds have no golden values.
void golden_step(const Flags& flags, bench::RunResult* r) {
    std::string error;
    std::optional<Json> doc = Json::load_file(flags.golden, &error);
    if (flags.write_golden) {
        if (!doc) doc = Json::object();
        Json workloads = (*doc)["workloads"];
        workloads.set(flags.workload, r->exact);
        doc->set("schema", "dbsp-bench-golden-v1");
        doc->set("seed", std::uint64_t{1});
        doc->set("workloads", std::move(workloads));
        std::error_code ec;
        std::filesystem::create_directories(std::filesystem::path(flags.golden).parent_path(), ec);
        if (!doc->save_file(flags.golden, &error)) {
            r->fail("cannot write golden file: " + error);
        } else {
            std::printf("golden: wrote %s\n", flags.golden.c_str());
        }
        return;
    }
    if (flags.seed != 1) {
        std::printf("golden: unverified (seed %llu; the golden file covers seed 1)\n",
                    static_cast<unsigned long long>(flags.seed));
        return;
    }
    if (!doc) {
        r->fail("cannot read golden file: " + error);
        return;
    }
    const Json& want = (*doc)["workloads"][flags.workload];
    if (!want.is_object()) {
        r->fail("golden file has no entry for " + flags.workload);
        return;
    }
    const std::uint64_t failed0 = r->failed;
    // Both directions: a value the run stopped producing fails as surely as
    // one that changed.
    for (const auto& [key, expect] : want.members()) {
        if (!r->exact.contains(key)) r->fail("golden: " + key + " missing from the run");
    }
    for (const auto& [key, got] : r->exact.members()) {
        if (!want.contains(key)) {
            r->fail("golden: " + key + " missing from the golden file");
            continue;
        }
        const Json& expect = want[key];
        if (!got.is_array()) {
            if (got.dump_compact() != expect.dump_compact()) {
                r->fail("golden: " + key + " differs");
            }
            continue;
        }
        if (got.size() != expect.size()) {
            r->fail("golden: " + key + " has a different length");
            continue;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (got.items()[i].dump_compact() != expect.items()[i].dump_compact()) {
                r->fail("golden: " + key + "[" + std::to_string(i) + "] differs");
            }
        }
    }
    if (r->failed == failed0) std::printf("golden: verified\n");
}

int run_one(const Flags& flags, Clock::time_point start) {
    bench::RunConfig cfg;
    cfg.workload = flags.workload;
    cfg.seed = flags.seed;
    cfg.seconds = flags.seconds;
    cfg.trace = flags.trace;
    cfg.out_dir = flags.out;
    cfg.serve_bin = flags.serve_bin;
    cfg.process_start = start;

    const int cpu = bench::pin_to_one_cpu();
    std::printf("dbsp_bench %s seed=%llu seconds=%g trace=%d cpu=%d\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0, cpu);
    std::printf("provenance %s\n", provenance(flags, {cfg.workload}).dump_compact().c_str());
    std::fflush(stdout);
    bench::RunResult r = bench::is_sim_workload(cfg.workload) ? bench::run_sim_workload(cfg)
                                                              : bench::run_serve_mix(cfg);
    if (r.metrics.empty()) {
        // The workload aborted; report the declared metric set, zeroed.
        if (cfg.trace) {
            bench::emit_layers(bench::Layers{}, &r);
        } else {
            bench::emit_end_to_end(bench::EndToEnd{}, &r);
        }
        if (r.failed == 0) r.fail("the workload produced no metrics");
    }
    golden_step(flags, &r);

    Json metrics = Json::object();
    for (bench::Metric& m : r.metrics) {
        if (!std::isfinite(m.value)) {
            r.fail("metric " + m.name + " is not finite");
            m.value = 0.0;
        } else if (!cfg.trace && m.value == 0.0) {
            r.fail("end-to-end metric " + m.name + " reads 0");
        }
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
        Json entry = Json::object();
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        metrics.set(m.name, std::move(entry));
    }
    if (r.attempted == 0) r.fail("no operation was attempted");
    // A set-up failure is an attempt too: keep failed <= attempted.
    r.attempted = std::max(r.attempted, r.failed);
    std::printf("info %s\n", r.info.dump_compact().c_str());
    std::printf("result: %llu failed of %llu attempted (error_rate %g)\n",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted),
                r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                                : 1.0);
    Json out = Json::object();
    out.set("correct", r.failed == 0);
    out.set("attempted", r.attempted);
    out.set("failed", r.failed);
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", out.dump_compact().c_str());
    std::fflush(stdout);
    return r.failed == 0 ? 0 : 1;
}

struct Child {
    int status = -1;
    std::string output;          ///< stdout without the result line
    std::optional<Json> result;  ///< the parsed last line
};

/// Run this program again with \p args, capturing its stdout.
Child run_child(const std::vector<std::string>& args) {
    Child child;
    int fds[2];
    if (::pipe(fds) != 0) return child;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return child;
    }
    if (pid == 0) {
        ::close(fds[0]);
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[1]);
        std::vector<const char*> argv = {"dbsp_bench"};
        for (const std::string& a : args) argv.push_back(a.c_str());
        argv.push_back(nullptr);
        ::execv("/proc/self/exe", const_cast<char* const*>(argv.data()));
        std::perror("dbsp_bench: exec");
        ::_exit(127);
    }
    ::close(fds[1]);
    std::string all;
    char buf[4096];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        all.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    ::waitpid(pid, &child.status, 0);
    while (!all.empty() && all.back() == '\n') all.pop_back();
    const std::size_t nl = all.rfind('\n');
    child.output = nl == std::string::npos ? "" : all.substr(0, nl + 1);
    child.result = Json::parse(nl == std::string::npos ? all : all.substr(nl + 1));
    return child;
}

std::vector<std::string> child_args(const Flags& f, const std::string& workload,
                                    std::uint64_t seed) {
    std::vector<std::string> a = {"--workload", workload,     "--seed",  std::to_string(seed),
                                  "--seconds",  std::to_string(f.seconds), "--trace",
                                  f.trace ? "1" : "0",        "--out",   f.out,
                                  "--golden",   f.golden,     "--serve-bin", f.serve_bin};
    if (f.write_golden) a.push_back("--write-golden");
    return a;
}

bool child_ok(const Child& c) {
    return WIFEXITED(c.status) && WEXITSTATUS(c.status) == 0 && c.result &&
           (*c.result)["correct"].as_bool();
}

/// Every workload once, each in its own child process.
int run_all(const Flags& flags) {
    std::printf("provenance %s\n", provenance(flags, kWorkloads).dump_compact().c_str());
    Json results = Json::object();
    bool ok = true;
    for (const std::string& w : kWorkloads) {
        const Child c = run_child(child_args(flags, w, flags.seed));
        std::fputs(c.output.c_str(), stdout);
        ok = ok && child_ok(c);
        results.set(w, c.result ? *c.result : Json());
        std::printf("== %s: %s\n", w.c_str(), child_ok(c) ? "correct" : "FAILED");
        std::fflush(stdout);
    }
    Json out = Json::object();
    out.set("correct", ok);
    out.set("results", std::move(results));
    std::printf("%s\n", out.dump_compact().c_str());
    return ok ? 0 : 1;
}

/// Quartiles exactly as Python's statistics.quantiles(values, n=4).
std::vector<double> quartiles(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    const auto n = static_cast<long>(xs.size());
    if (n == 1) return {xs[0], xs[0], xs[0]};
    std::vector<double> q;
    for (long i = 1; i < 4; ++i) {
        long j = i * (n + 1) / 4;
        j = std::clamp(j, 1L, n - 1);
        const long delta = i * (n + 1) - j * 4;
        q.push_back((xs[j - 1] * static_cast<double>(4 - delta) +
                     xs[j] * static_cast<double>(delta)) / 4.0);
    }
    return q;
}

double python_median(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/// A/A mode: every workload N times with seeds S..S+N-1, alternating the
/// order, then median and quartiles per metric x workload.
int run_repeat(const Flags& flags) {
    std::string error;
    const auto decl = Json::load_file(DBSP_BENCH_SOURCE_DIR "/../BENCHMARK.json", &error);
    std::map<std::string, double> bounds;
    if (decl) {
        for (const Json& m : (*decl)["end_to_end"].items()) {
            bounds[m["name"].as_string()] = m["bound"].as_double();
        }
    }
    // values[workload][metric] in first-seen metric order.
    std::map<std::string, std::vector<std::pair<std::string, std::vector<double>>>> values;
    std::map<std::string, std::string> units;
    bool ok = true;
    const std::vector<std::string> chosen =
        flags.workload == "all" ? kWorkloads : std::vector<std::string>{flags.workload};
    for (std::uint64_t r = 0; r < flags.repeat; ++r) {
        std::vector<std::string> order = chosen;
        if (r % 2 == 1) std::reverse(order.begin(), order.end());
        for (const std::string& w : order) {
            const Child c = run_child(child_args(flags, w, flags.seed + r));
            const bool good = child_ok(c);
            ok = ok && good;
            std::fprintf(stderr, "repeat %llu/%llu %s seed %llu: %s\n",
                         static_cast<unsigned long long>(r + 1),
                         static_cast<unsigned long long>(flags.repeat), w.c_str(),
                         static_cast<unsigned long long>(flags.seed + r),
                         good ? "correct" : "FAILED");
            if (!c.result) continue;
            auto& per = values[w];
            for (const auto& [name, m] : (*c.result)["metrics"].members()) {
                units[name] = m["unit"].as_string();
                auto it = std::find_if(per.begin(), per.end(),
                                       [&](const auto& p) { return p.first == name; });
                if (it == per.end()) it = per.insert(per.end(), {name, {}});
                it->second.push_back(m["value"].as_double());
            }
        }
    }
    Json results = Json::object();
    std::printf("%-16s %-36s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1",
                "q3", "spread", "bound");
    for (const std::string& w : chosen) {
        Json per = Json::object();
        for (const auto& [name, xs] : values[w]) {
            const double med = python_median(xs);
            const std::vector<double> q = quartiles(xs);
            const double spread = med != 0.0 ? (q[2] - q[0]) / std::fabs(med) : 0.0;
            const auto b = bounds.find(name);
            const bool wide = b != bounds.end() && spread > b->second;
            char bound[16] = "-";
            if (b != bounds.end()) std::snprintf(bound, sizeof(bound), "%.2f", b->second);
            std::printf("%-16s %-36s %14.6g %14.6g %14.6g %8.4f %6s%s\n", w.c_str(), name.c_str(),
                        med, q[0], q[2], spread, bound, wide ? "  SPREAD > BOUND" : "");
            Json m = Json::object();
            m.set("median", med);
            m.set("q1", q[0]);
            m.set("q3", q[2]);
            m.set("unit", units[name]);
            per.set(name, std::move(m));
        }
        results.set(w, std::move(per));
    }
    Json out = Json::object();
    out.set("schema", "dbsp-bench-history-v1");
    out.set("provenance", provenance(flags, chosen));
    out.set("repeat", flags.repeat);
    out.set("trace", flags.trace);
    out.set("correct", ok);
    out.set("results", std::move(results));
    std::printf("%s\n", out.dump_compact().c_str());
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Clock::time_point start = Clock::now();
    clean_environment();
    const Flags flags = parse_flags(argc, argv);
    if (flags.repeat > 0) return run_repeat(flags);
    if (flags.workload == "all") return run_all(flags);
    return run_one(flags, start);
}
