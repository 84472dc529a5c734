/// serve-mix: a closed loop of request batches against a real dbsp_serve
/// daemon over its Unix socket. One caller sends a batch's requests one at a
/// time on one persistent connection, each after the previous reply. A
/// batch is 8 requests for popular specs, picked with Zipf weights and
/// served from the daemon's cache, and 2 fresh specs, guaranteed misses
/// that run the dbsp, hmm and bt legs.
///
/// Like a sim job, every batch is timed between two host probe runs. The
/// daemon runs its legs serially (--threads 1) and, in an untraced run,
/// inherits the benchmark's CPU, so the batch and the probe run on the same
/// CPU, one after the other.
/// With the default worker pool, and with the daemon free to run on any
/// CPU, batch time followed how fast the host woke idle CPUs, not the
/// daemon's work (see benchmark/README.md).

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "check/program_gen.hpp"
#include "check/trace_io.hpp"
#include "common.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "model/cost_table_cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/runner.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace bench {

namespace {

using namespace dbsp;

constexpr std::size_t kPopular = 32;
constexpr std::uint64_t kPopularSeed = 0x5eed5eed5eed5eecull;
/// Popular specs have v in {16, 64} and 1..kMaxSupersteps supersteps.
constexpr std::size_t kMaxSupersteps = 16;
constexpr std::size_t kBatchHits = 8;
/// Every batch has one fresh spec of each size, all with the same superstep
/// count, so batches cost alike whatever the seed.
constexpr unsigned kMissV[] = {16, 64};
constexpr std::size_t kMissSupersteps = 8;
/// Untimed batches at the start of the window: allocator and caches.
constexpr std::size_t kWarmBatches = 16;
constexpr std::size_t kSetups = 9;
/// A request with no reply after this long fails the run.
constexpr auto kStallLimit = std::chrono::seconds(30);
constexpr int kSpanRing = 4096;
constexpr int kSpanFetch = 1024;

/// The specs of a run and their op:"run" request lines: [0, kPopular) are
/// the popular ones, the rest fresh, each used once. Batches are drawn on
/// demand, so a run's inputs depend on the seed and on how many batches it
/// reaches, never on timing within a batch.
///
/// The popular specs are the service's hot set: the same for every seed,
/// because a hit's cost follows its spec's size, and 32 specs drawn afresh
/// per seed moved the batch time by 5% from seed to seed. The seed picks
/// the request order and every fresh spec.
class Traffic {
public:
    explicit Traffic(std::uint64_t seed) : rng_(seed), spec_rng_(kPopularSeed) {
        double total = 0.0;
        for (std::size_t r = 0; r < kPopular; ++r) {
            total += 1.0 / static_cast<double>(r + 1);
            zipf_cdf_.push_back(total);
        }
        // Popular rank r has a fixed size class.
        for (std::size_t r = 0; r < kPopular; ++r) {
            add_spec(r % 2 == 0 ? 16u : 64u, 1 + (r * 5 + 8) % kMaxSupersteps);
        }
        spec_rng_ = SplitMix64(seed ^ 0x5eed5eed5eed5eedull);
    }

    /// The spec indices of the next batch, in send order.
    std::vector<std::size_t> next_batch() {
        std::vector<std::size_t> batch;
        for (std::size_t i = 0; i < kBatchHits; ++i) {
            const double u = rng_.next_double() * zipf_cdf_.back();
            std::size_t spec = 0;
            while (spec + 1 < kPopular && zipf_cdf_[spec] < u) ++spec;
            batch.push_back(spec);
        }
        for (const unsigned v : kMissV) batch.push_back(add_spec(v, kMissSupersteps));
        for (std::size_t i = batch.size() - 1; i > 0; --i) {
            std::swap(batch[i], batch[rng_.next_below(i + 1)]);
        }
        return batch;
    }

    std::vector<check::ProgramSpec> specs;
    std::vector<std::string> lines;

private:
    std::size_t add_spec(unsigned v, std::size_t steps) {
        check::GenConfig config;
        config.v_choices = {v};
        config.max_supersteps = steps;
        for (;;) {
            check::ProgramSpec spec = check::generate_spec(config, spec_rng_.next());
            if (spec.labels.size() != steps) continue;
            std::string text = check::serialize_spec(spec);
            if (!seen_.insert(text).second) continue;  // fresh means never seen
            report::Json req = report::Json::object();
            req.set("op", "run");
            req.set("spec", std::move(text));
            lines.push_back(req.dump_compact());
            specs.push_back(std::move(spec));
            return specs.size() - 1;
        }
    }

    SplitMix64 rng_;
    SplitMix64 spec_rng_;
    std::vector<double> zipf_cdf_;
    std::set<std::string> seen_;
};

/// A spawned dbsp_serve, reaped (and killed if still running) on
/// destruction.
class Daemon {
public:
    Daemon() = default;
    ~Daemon() { kill_now(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// A \p traced daemon keeps a span ring and runs on a CPU of its own:
    /// on the client's CPU, the client woken by a reply preempts the daemon
    /// before it closes the request's spans, so they would include client
    /// time.
    bool start(const std::string& bin, const std::string& socket, bool traced,
               std::string* error) {
        socket_ = socket;
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ < 0) {
            *error = "fork failed";
            return false;
        }
        if (pid_ == 0) {
            // If the benchmark is killed, the daemon must not outlive it.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent) ::_exit(127);
            // The daemon's status lines must not mix into the result stream.
            ::dup2(STDERR_FILENO, STDOUT_FILENO);
            const std::string ring = std::to_string(kSpanRing);
            std::vector<const char*> argv = {bin.c_str(), "--socket", socket.c_str(),
                                             "--threads", "1"};
            if (traced) {
                move_to_other_cpu();
                argv.push_back("--span-ring");
                argv.push_back(ring.c_str());
            }
            argv.push_back(nullptr);
            ::execv(bin.c_str(), const_cast<char* const*>(argv.data()));
            std::perror("dbsp_bench: exec dbsp_serve");
            ::_exit(127);
        }
        return true;
    }

    bool connect(serve::Client* client, std::string* error) {
        for (int attempt = 0; attempt < 1000; ++attempt) {
            if (client->connect(socket_, error)) return true;
            if (reap(0)) {
                *error = "daemon exited during start-up";
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return false;
    }

    /// op:"shutdown" on \p control, then reap; SIGKILL after a grace period.
    bool stop(serve::Client* control) {
        std::string reply, error;
        control->request("{\"op\":\"shutdown\"}", &reply, &error);
        control->close();
        if (reap(10000)) return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
        kill_now();
        return false;
    }

    void kill_now() {
        if (pid_ <= 0) return;
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status_, 0, &usage_);
        pid_ = -1;
    }

    double cpu_ms() const {
        const auto ms = [](const timeval& t) {
            return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_usec) / 1e3;
        };
        return ms(usage_.ru_utime) + ms(usage_.ru_stime);
    }
    pid_t pid() const { return pid_; }

private:
    bool reap(int timeout_ms) {
        for (int waited = 0;; waited += 5) {
            if (pid_ <= 0) return true;
            if (::wait4(pid_, &status_, WNOHANG, &usage_) == pid_) {
                pid_ = -1;
                return true;
            }
            if (waited >= timeout_ms) return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    pid_t pid_ = -1;
    std::string socket_;
    int status_ = 0;
    rusage usage_{};
};

/// Sends SIGKILL to a daemon whose reply is kStallLimit overdue, which ends
/// the blocked read on its socket. The daemon's owner still reaps it.
class Watchdog {
public:
    explicit Watchdog(pid_t pid) : pid_(pid), thread_([this] { watch(); }) {}
    ~Watchdog() { join(); }
    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    /// A reply arrived: restart the limit.
    void progress() {
        std::lock_guard<std::mutex> lock(mu_);
        last_ = Clock::now();
    }
    void join() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable()) thread_.join();
    }
    bool fired() const { return fired_.load(); }

private:
    void watch() {
        std::unique_lock<std::mutex> lock(mu_);
        while (!done_) {
            if (Clock::now() - last_ > kStallLimit) {
                fired_.store(true);
                ::kill(pid_, SIGKILL);
                return;
            }
            cv_.wait_for(lock, std::chrono::seconds(1));
        }
    }

    pid_t pid_;
    std::mutex mu_;
    std::condition_variable cv_;
    Clock::time_point last_ = Clock::now();  // guarded by mu_
    bool done_ = false;                      // guarded by mu_
    std::atomic<bool> fired_{false};
    std::thread thread_;
};

bool reply_ok(const std::string& reply) { return reply.rfind("{\"ok\":true", 0) == 0; }

/// One request line and its parsed reply; nullopt on failure.
std::optional<report::Json> query(serve::Client* client, const std::string& line) {
    std::string reply, error;
    if (!client->request(line, &reply, &error)) return std::nullopt;
    return report::Json::parse(reply);
}

struct CacheCounts {
    double hits = 0.0;
    double misses = 0.0;
};

CacheCounts cache_counts(serve::Client* control) {
    CacheCounts c;
    if (const auto doc = query(control, "{\"op\":\"stats\"}")) {
        c.hits = (*doc)["stats"]["cache"]["hits"].as_double();
        c.misses = (*doc)["stats"]["cache"]["misses"].as_double();
    }
    return c;
}

/// Set-up: spawn the daemon, wait for its first ping and warm the cache
/// with the popular specs.
bool set_up(const RunConfig& cfg, const Traffic& traffic, const std::string& socket,
            Daemon* daemon, serve::Client* control, RunResult* result) {
    std::string error;
    if (!daemon->start(cfg.serve_bin, socket, cfg.trace, &error) ||
        !daemon->connect(control, &error)) {
        result->fail("cannot start dbsp_serve: " + error);
        return false;
    }
    const auto pong = query(control, "{\"op\":\"ping\"}");
    if (!pong || !(*pong)["pong"].as_bool()) {
        result->fail("daemon does not answer ping");
        return false;
    }
    for (std::size_t i = 0; i < kPopular; ++i) {
        std::string reply;
        if (!control->request(traffic.lines[i], &reply, &error) || !reply_ok(reply)) {
            result->fail("warm-up request " + std::to_string(i) + " failed");
            return false;
        }
    }
    return true;
}

/// Offline results of the specs \p todo.
std::map<std::size_t, std::string> offline_results(const Traffic& traffic,
                                                   const std::vector<std::size_t>& todo) {
    serve::RunOptions options;
    options.threads = 1;
    std::map<std::size_t, std::string> out;
    for (const std::size_t id : todo) {
        // An exception leaves the result empty, which no reply matches.
        try {
            out[id] = serve::run_to_json(traffic.specs[id], options);
        } catch (const std::exception& e) {
            out[id].clear();
            std::fprintf(stderr, "dbsp_bench: offline run failed: %s\n", e.what());
        }
    }
    return out;
}

/// The daemon's miss leg replayed in-process for layer timing: the hmm and
/// bt legs of run_to_json (program, smoothing, simulation), serially.
struct ReplayOut {
    TracedJob t;
    double hmm_cost = 0.0;
    double bt_cost = 0.0;
    std::uint64_t words_touched = 0;
    std::uint64_t rounds = 0;
    std::uint64_t block_transfers = 0;
    std::uint64_t sorts = 0;
    double transfer_volume = 0.0;

    bool same_costs(const ReplayOut& o) const {
        return hmm_cost == o.hmm_cost && bt_cost == o.bt_cost &&
               words_touched == o.words_touched && rounds == o.rounds &&
               block_transfers == o.block_transfers && sorts == o.sorts &&
               transfer_volume == o.transfer_volume;
    }
};

ReplayOut replay(const check::ProgramSpec& spec, SpanLog* log, PhaseClock* clock,
                 std::uint64_t job) {
    ReplayOut out;
    const model::AccessFunction f = serve::RunOptions{}.f;
    const std::int64_t job_span = log != nullptr ? log->open("job", job, -1) : -1;
    const auto open = [&](const char* name) {
        return log != nullptr ? log->open(name, job, job_span) : -1;
    };
    const auto close = [&](std::int64_t id) {
        if (log != nullptr) log->close(id);
    };
    const Clock::time_point t0 = Clock::now();
    for (const bool bt_leg : {false, true}) {
        const Clock::time_point a = Clock::now();
        std::int64_t span = open("algos.build");
        check::GeneratedProgram prog(spec);
        close(span);
        const Clock::time_point b = Clock::now();
        span = open("core.smooth");
        const std::size_t mu = prog.context_words();
        auto smoothed = core::smooth(prog, bt_leg ? core::bt_label_set(f, mu, spec.processors)
                                                  : core::hmm_label_set(f, mu, spec.processors));
        close(span);
        const Clock::time_point c = Clock::now();
        span = open("core.simulate");
        trace::Sink* sink = nullptr;
        if (clock != nullptr) {
            clock->start(log, job, span);
            sink = clock;
        }
        if (bt_leg) {
            core::BtSimulator::Options options;
            options.trace = sink;
            const core::BtSimResult r = core::BtSimulator(f, options).simulate(*smoothed);
            out.bt_cost = r.bt_cost;
            out.rounds += r.rounds;
            out.block_transfers = r.block_transfers;
            out.sorts = r.sort_invocations;
            out.transfer_volume = r.transfer_volume;
        } else {
            core::HmmSimulator::Options options;
            options.trace = sink;
            const core::HmmSimResult r = core::HmmSimulator(f, options).simulate(*smoothed);
            out.hmm_cost = r.hmm_cost;
            out.rounds += r.rounds;
            out.words_touched = r.words_touched;
        }
        if (clock != nullptr) {
            clock->finish();
            out.t.add_phases(*clock);
        }
        close(span);
        const Clock::time_point d = Clock::now();
        out.t.build_ms += ms_between(a, b);
        out.t.smooth_ms += ms_between(b, c);
        out.t.simulate_ms += ms_between(c, d);
    }
    out.t.total_ms = ms_between(t0, Clock::now());
    if (log != nullptr) log->close(job_span);
    return out;
}

/// Shares of client-observed latency spent in each daemon span, over the
/// newest requests (the ring holds the most recent ones). Transport time is
/// client latency minus the daemon's own request span.
void add_span_shares(const report::Json& records, const std::vector<double>& latencies,
                     std::map<std::string, double>* sums) {
    std::size_t runs = 0;
    for (const report::Json& rec : records.items()) {
        if (rec["op"].as_string() != "run") continue;
        ++runs;
        (*sums)["request"] += rec["ms"].as_double();
        for (const report::Json& child : rec["spans"]["children"].items()) {
            (*sums)[child["name"].as_string()] += child["ms"].as_double();
        }
    }
    // Requests go one at a time over one connection, so the newest `runs`
    // requests the daemon finished are the last `runs` the loop timed.
    for (std::size_t i = latencies.size() - std::min(runs, latencies.size());
         i < latencies.size(); ++i) {
        (*sums)["client"] += latencies[i];
    }
}

/// A daemon socket in the run's output directory. Relative to the working
/// directory where possible: socket paths are limited to 107 bytes.
std::string socket_path(const RunConfig& cfg, const char* tag) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.out_dir, ec);
    const std::filesystem::path dir = std::filesystem::proximate(cfg.out_dir, ec);
    return (ec ? std::filesystem::path(cfg.out_dir) : dir).string() + "/serve-" +
           std::to_string(::getpid()) + "-" + tag + ".sock";
}

}  // namespace

RunResult run_serve_mix(const RunConfig& cfg) {
    RunResult result;
    // A traced run spends half its time on traffic and half on the
    // in-process replay of the miss leg.
    const double traffic_ms = (cfg.trace ? cfg.seconds / 2.0 : cfg.seconds) * 1e3;

    // Set-up is daemon spawn to first ping plus the popular specs warmed;
    // the popular specs are generated once, before it. Like a batch, every
    // set-up sits between two probe runs. The measured daemon is set up
    // once. An untraced run times kSetups - 1 more set-ups of a throwaway
    // daemon at even intervals through the window and after it.
    Traffic traffic(cfg.seed);
    RelativeTimer timer;
    Daemon daemon;
    serve::Client control;
    bool up = false;
    std::vector<double> setups = {timer.setup_s(Clock::now(), [&] {
        up = set_up(cfg, traffic, socket_path(cfg, "main"), &daemon, &control, &result);
    })};
    if (!up) return result;
    const auto extra_set_up = [&] {
        Daemon d;
        serve::Client c;
        bool ok = false;
        const double s = timer.setup_s(Clock::now(), [&] {
            ok = set_up(cfg, traffic, socket_path(cfg, "setup"), &d, &c, &result);
        });
        if (ok) setups.push_back(s);
        d.stop(&c);
    };

    const CacheCounts cache0 = cache_counts(&control);
    serve::Client conn;
    std::string error;
    if (!daemon.connect(&conn, &error)) {
        result.fail("cannot open the load connection: " + error);
        return result;
    }

    // The loop. Each distinct reply of a spec is kept once, for the
    // byte-identity check after the window.
    std::map<std::size_t, std::set<std::string>> replies;
    std::vector<double> rel, batch_ms, hit_ms, miss_ms, latencies;
    Watchdog watchdog(daemon.pid());
    const Clock::time_point w0 = Clock::now();
    timer.begin();
    for (std::size_t batch = 0;; ++batch) {
        const double elapsed = ms_between(w0, Clock::now());
        if (!rel.empty() && elapsed >= traffic_ms) break;
        if (!cfg.trace && batch >= kWarmBatches && setups.size() < kSetups - 1 &&
            elapsed >= traffic_ms * static_cast<double>(setups.size()) / (kSetups - 1)) {
            extra_set_up();
        }
        const std::vector<std::size_t> ids = traffic.next_batch();
        std::vector<double> lat;
        const Clock::time_point b0 = Clock::now();
        for (const std::size_t id : ids) {
            const Clock::time_point s = Clock::now();
            std::string reply;
            if (!conn.request(traffic.lines[id], &reply, &error)) break;
            lat.push_back(ms_between(s, Clock::now()));
            watchdog.progress();
            replies[id].insert(std::move(reply));
        }
        if (lat.size() < ids.size()) {
            result.fail("batch " + std::to_string(batch) + ": no reply: " + error);
            break;
        }
        const double ms = ms_between(b0, Clock::now());
        const double ratio = timer.end(ms);
        if (batch < kWarmBatches) continue;
        rel.push_back(ratio);
        batch_ms.push_back(ms);
        for (std::size_t i = 0; i < ids.size(); ++i) {
            (ids[i] < kPopular ? hit_ms : miss_ms).push_back(lat[i]);
            latencies.push_back(lat[i]);
        }
    }
    watchdog.join();
    if (watchdog.fired()) result.fail("the daemon stalled for 30 s and was killed");

    Layers layers;
    std::map<std::string, double> span_sums;
    if (cfg.trace) {
        const auto doc =
            query(&control, "{\"op\":\"spans\",\"limit\":" + std::to_string(kSpanFetch) + "}");
        if (doc) add_span_shares((*doc)["spans"], latencies, &span_sums);
    }
    const CacheCounts cache1 = cache_counts(&control);
    if (const auto frame = query(&control, "{\"op\":\"watch\",\"interval_ms\":0,\"count\":1}")) {
        layers.serve_threads_end = (*frame)["proc"]["threads"].as_double();
        layers.serve_fds_end = (*frame)["proc"]["open_fds"].as_double();
    }
    const double daemon_rss_mb = peak_rss_mb(daemon.pid());
    conn.close();
    if (!daemon.stop(&control)) result.fail("daemon did not exit cleanly");
    while (!cfg.trace && setups.size() < kSetups) extra_set_up();

    // Byte identity against the offline runner, after the window: a fresh
    // spec's one reply must be the uncached result. A popular spec's replies
    // are cached ones, or uncached after the daemon's 128-entry LRU cache
    // evicted it.
    std::vector<std::size_t> used;
    for (std::size_t i = 0; i < kPopular; ++i) used.push_back(i);
    for (const auto& [id, set] : replies) {
        if (id >= kPopular) used.push_back(id);
    }
    const std::map<std::size_t, std::string> expected = offline_results(traffic, used);
    for (const auto& [id, set] : replies) {
        const std::string fresh = serve::run_reply(expected.at(id), false);
        const std::string cached = serve::run_reply(expected.at(id), true);
        for (const std::string& reply : set) {
            if (reply != fresh && (id >= kPopular || reply != cached)) {
                result.fail("spec " + std::to_string(id) +
                            ": reply differs from offline run_to_json");
            }
        }
    }
    result.attempted += latencies.size();
    std::string popular;
    for (std::size_t i = 0; i < kPopular; ++i) popular += expected.at(i);
    result.exact.set("popular_digest", fnv_hex(popular));

    const double hits = cache1.hits - cache0.hits;
    const double misses = cache1.misses - cache0.misses;
    layers.serve_cache_hit_ratio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    result.info.set("batches", static_cast<std::uint64_t>(batch_ms.size()));
    result.info.set("cache_hit_ratio", layers.serve_cache_hit_ratio);
    result.info.set("hit_ms_p50", median(hit_ms));
    result.info.set("miss_ms_p50", median(miss_ms));
    result.info.set("miss_ms_p90", quantile(miss_ms, 0.9));

    if (!cfg.trace) {
        EndToEnd e;
        e.setup_s = median(setups);
        e.job_rel_p50 = median(rel);
        e.job_rel_p90 = quantile(rel, 0.9);
        e.peak_rss_mb = daemon_rss_mb;
        emit_end_to_end(e, &result);
        result.info.set("setups_s", json_array(setups));
        result.info.set("raw_setups_s", json_array(timer.raw_setups_s()));
        result.info.set("batch_ms_p50", median(batch_ms));
        result.info.set("batch_ms_p90", quantile(batch_ms, 0.9));
        result.info.set("probe_ms_p50", median(timer.probe_ms()));
        // Daemon CPU over its life, per run request it served (warm-up included).
        result.info.set("daemon_cpu_ms_per_request",
                        daemon.cpu_ms() / static_cast<double>(latencies.size() + kPopular));
        return result;
    }

    const double client = span_sums["client"];
    if (client > 0.0) {
        layers.serve_parse_share = span_sums["parse"] / client;
        layers.serve_probe_share = span_sums["cache-probe"] / client;
        layers.serve_run_share = span_sums["run"] / client;
        layers.serve_reply_share = span_sums["reply-write"] / client;
        layers.serve_transport_share = 1.0 - span_sums["request"] / client;
    }

    // Replay: a reference pass over the popular specs from a cleared cost
    // table cache gives the exact counts; then traced and untraced replays
    // alternate over every spec the run used until the budget is spent.
    const Clock::time_point r0 = Clock::now();
    SpanLog log(r0);
    PhaseClock clock;
    LayerSamples samples;
    std::map<std::size_t, ReplayOut> first;
    model::CostTableCache::global().clear();
    const auto stats0 = model::CostTableCache::global().stats();
    const RegistryCounts reg0 = RegistryCounts::read();
    for (std::size_t i = 0; i < kPopular; ++i) {
        const ReplayOut r = replay(traffic.specs[i], nullptr, nullptr, i);
        first.emplace(i, r);
        samples.untraced_ms.push_back(r.t.total_ms);
        layers.words_touched += static_cast<double>(r.words_touched);
        layers.rounds += static_cast<double>(r.rounds);
        layers.block_transfers += static_cast<double>(r.block_transfers);
        layers.sort_invocations += static_cast<double>(r.sorts);
        layers.transfer_volume += r.transfer_volume;
    }
    RegistryCounts::read().delta_into(reg0, &layers);
    const auto stats1 = model::CostTableCache::global().stats();
    layers.cost_table_builds = static_cast<double>(stats1.builds - stats0.builds);
    layers.cost_table_builds_avoided =
        static_cast<double>(stats1.builds_avoided() - stats0.builds_avoided());

    const double budget_ms = cfg.seconds * 1e3 - traffic_ms;
    std::uint64_t job = kPopular;
    for (std::size_t round = 0; ms_between(r0, Clock::now()) < budget_ms || samples.traced.empty();
         ++round) {
        const std::size_t spec = used[round % used.size()];
        for (int k = 0; k < 2; ++k, ++job) {
            const bool traced = (k + round) % 2 == 1;
            const ReplayOut r = traced ? replay(traffic.specs[spec], &log, &clock, job)
                                       : replay(traffic.specs[spec], nullptr, nullptr, job);
            ++result.attempted;
            const auto [it, inserted] = first.emplace(spec, r);
            if (!inserted && !r.same_costs(it->second)) {
                result.fail("replay of spec " + std::to_string(spec) + " changed its costs");
            }
            if (traced) {
                samples.traced.push_back(r.t);
            } else {
                samples.untraced_ms.push_back(r.t.total_ms);
            }
        }
    }
    samples.reduce(&layers);
    emit_layers(layers, &result);
    result.info.set("traced_jobs", static_cast<std::uint64_t>(samples.traced.size()));

    report::Json doc = log.to_json();
    doc.set("workload", cfg.workload);
    doc.set("seed", cfg.seed);
    report::Json shares = report::Json::object();
    for (const auto& [name, ms] : span_sums) shares.set(name, ms);
    doc.set("daemon_span_ms", std::move(shares));
    if (!save_spans(cfg, doc)) result.fail("cannot write the spans file");
    return result;
}

report::Json serve_mix_shape() {
    report::Json j = report::Json::object();
    j.set("popular_specs", static_cast<std::uint64_t>(kPopular));
    j.set("batch_hits", static_cast<std::uint64_t>(kBatchHits));
    report::Json miss_v = report::Json::array();
    for (const unsigned v : kMissV) miss_v.push_back(static_cast<std::uint64_t>(v));
    j.set("batch_miss_v", std::move(miss_v));
    j.set("miss_supersteps", static_cast<std::uint64_t>(kMissSupersteps));
    return j;
}

}  // namespace bench
