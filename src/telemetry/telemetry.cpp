#include "telemetry/telemetry.hpp"

#include <dirent.h>

#include <cmath>

#include "telemetry/clock.hpp"

namespace dbsp::telemetry {

report::Json RequestRecord::to_json() const {
    report::Json j = report::Json::object();
    j.set("id", id);
    j.set("op", op);
    j.set("ok", ok);
    if (op == "run") j.set("cached", cached);
    j.set("ms", ms);
    j.set("bytes_in", bytes_in);
    j.set("bytes_out", bytes_out);
    if (hmm_slack > 0.0 || bt_slack > 0.0) {
        report::Json slack = report::Json::object();
        if (hmm_slack > 0.0) slack.set("hmm", hmm_slack);
        if (bt_slack > 0.0) slack.set("bt", bt_slack);
        j.set("bound_slack", std::move(slack));
    }
    j.set("spans", root.to_json());
    return j;
}

Telemetry::Telemetry(Options options)
    : options_(options), start_ns_(steady_now_ns()) {
    counters_.start();
}

void Telemetry::record_request(RequestRecord record) {
    const std::int64_t now_s = steady_seconds();
    if (!record.ok) errors_.add(now_s);
    latency_us_.observe(now_s, static_cast<std::uint64_t>(record.ms * 1000.0));
    if (record.hmm_slack > 0.0) {
        hmm_slack_permille_.observe(
            now_s, static_cast<std::uint64_t>(std::llround(record.hmm_slack * 1000.0)));
    }
    if (record.bt_slack > 0.0) {
        bt_slack_permille_.observe(
            now_s, static_cast<std::uint64_t>(std::llround(record.bt_slack * 1000.0)));
    }

    if (options_.logger != nullptr && options_.slow_ms > 0.0 &&
        record.ms >= options_.slow_ms &&
        options_.logger->enabled(LogLevel::kWarn)) {
        report::Json fields = report::Json::object();
        fields.set("id", record.id);
        fields.set("op", record.op);
        fields.set("ms", record.ms);
        fields.set("slow_ms", options_.slow_ms);
        fields.set("spans", record.root.to_json());
        options_.logger->log(LogLevel::kWarn, "slow-request", std::move(fields));
    }

    std::lock_guard<std::mutex> lock(ring_mutex_);
    ring_.push_back(std::move(record));
    while (ring_.size() > options_.span_ring) ring_.pop_front();
}

void Telemetry::record_cache(bool hit) {
    const std::int64_t now_s = steady_seconds();
    (hit ? cache_hits_ : cache_misses_).add(now_s);
}

report::Json Telemetry::window_json(std::int64_t now_s, unsigned window_s) const {
    report::Json w = report::Json::object();
    // Every request adds one latency sample, so the window's sample count is
    // its request count.
    const auto lat = latency_us_.window_over(now_s, window_s);
    w.set("qps", static_cast<double>(lat.total) / window_s);
    w.set("p50_ms", lat.quantile(0.50) / 1000.0);
    w.set("p99_ms", lat.quantile(0.99) / 1000.0);
    const double hits = static_cast<double>(cache_hits_.sum_over(now_s, window_s));
    const double misses = static_cast<double>(cache_misses_.sum_over(now_s, window_s));
    w.set("cache_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    w.set("errors", errors_.sum_over(now_s, window_s));
    return w;
}

namespace {

report::Json slack_json(const report::WindowedHistogram& h, std::int64_t now_s) {
    const auto w = h.window_over(now_s, 60);
    report::Json j = report::Json::object();
    j.set("p50", w.quantile(0.50) / 1000.0);
    j.set("p99", w.quantile(0.99) / 1000.0);
    j.set("count", w.total);
    return j;
}

}  // namespace

report::Json Telemetry::frame(std::uint64_t seq, const ServerVitals& vitals) const {
    const std::int64_t now_s = steady_seconds();
    report::Json f = report::Json::object();
    f.set("schema", kSchema);
    f.set("seq", seq);
    f.set("uptime_s", static_cast<double>(steady_now_ns() - start_ns_) / 1e9);

    report::Json windows = report::Json::object();
    windows.set("1s", window_json(now_s, 1));
    windows.set("10s", window_json(now_s, 10));
    windows.set("60s", window_json(now_s, 60));
    f.set("windows", std::move(windows));

    report::Json slack = report::Json::object();
    slack.set("hmm", slack_json(hmm_slack_permille_, now_s));
    slack.set("bt", slack_json(bt_slack_permille_, now_s));
    f.set("bound_slack", std::move(slack));

    report::Json server = report::Json::object();
    server.set("requests", vitals.requests);
    server.set("runs", vitals.runs);
    server.set("errors", vitals.errors);
    server.set("active_runs", in_flight_runs());
    server.set("connections", vitals.connections);
    report::Json cache = report::Json::object();
    cache.set("hits", vitals.cache_hits);
    cache.set("misses", vitals.cache_misses);
    cache.set("entries", vitals.cache_entries);
    server.set("cache", std::move(cache));
    f.set("server", std::move(server));

    report::Json log = report::Json::object();
    if (options_.logger != nullptr) {
        const Logger::Stats ls = options_.logger->stats();
        log.set("enabled", options_.logger->active());
        log.set("written", ls.written);
        log.set("dropped", ls.dropped);
        log.set("rotations", ls.rotations);
    } else {
        log.set("enabled", false);
        log.set("written", std::uint64_t{0});
        log.set("dropped", std::uint64_t{0});
        log.set("rotations", std::uint64_t{0});
    }
    f.set("log", std::move(log));

    report::Json proc = report::Json::object();
    proc.set("open_fds", proc_count("/proc/self/fd"));
    proc.set("threads", proc_count("/proc/self/task"));
    f.set("proc", std::move(proc));

    // Process-wide hardware counters since boot (multiplex-corrected; see
    // perf/counters.hpp). Purely observational: the section rides only in
    // telemetry frames, never in deterministic replies.
    f.set("counters", counters_.read().to_json());
    return f;
}

report::Json Telemetry::spans_json(std::size_t limit) const {
    std::lock_guard<std::mutex> lock(ring_mutex_);
    report::Json arr = report::Json::array();
    std::size_t emitted = 0;
    for (auto it = ring_.rbegin(); it != ring_.rend() && emitted < limit; ++it, ++emitted) {
        arr.push_back(it->to_json());
    }
    return arr;
}

std::uint64_t proc_count(const char* dir) {
    DIR* d = ::opendir(dir);
    if (d == nullptr) return 0;
    std::uint64_t n = 0;
    while (const dirent* entry = ::readdir(d)) {
        if (entry->d_name[0] == '.') continue;
        ++n;
    }
    ::closedir(d);
    return n;
}

}  // namespace dbsp::telemetry
