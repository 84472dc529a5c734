#pragma once

/// \file telemetry.hpp
/// The live-telemetry hub behind dbsp_serve's `watch` and `spans` ops: a
/// time-dimensioned layer over the monotonic metrics registry. It owns
///  * sliding 1s/10s/60s windows (report::WindowedCounter/-Histogram) over
///    requests, errors, cache probes and request latency, yielding rolling
///    QPS, p50/p99 and cache-hit ratio;
///  * per-request bound-slack gauges — measured simulated cost divided by
///    the paper's Theorem 5 (HMM) / Theorem 12 (BT) predictions, windowed so
///    `dbsp_top` flags a served workload drifting from its theoretical cost
///    envelope live;
///  * the recent-request ring of span trees served by op:"spans";
///  * frame() — one "dbsp-telemetry-v1" document combining the windows with
///    process vitals (/proc fd + thread counts, worker-pool occupancy,
///    logger backpressure counters).
///
/// Everything here observes wall time and never feeds the deterministic
/// reply path: frames and span trees travel only through the telemetry ops
/// and the JSONL log.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "perf/counters.hpp"
#include "report/json.hpp"
#include "report/metrics.hpp"
#include "telemetry/logger.hpp"
#include "telemetry/span.hpp"

namespace dbsp::telemetry {

/// Everything the telemetry layer keeps about one completed request.
struct RequestRecord {
    std::uint64_t id = 0;
    std::string op;
    bool ok = true;
    bool cached = false;
    double ms = 0.0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    /// Simulated cost / theorem bound; 0 = not computed on this request
    /// (non-run op, cache hit, or the model leg was not requested).
    double hmm_slack = 0.0;
    double bt_slack = 0.0;
    Span root;  ///< full span tree (parse -> ... -> reply-write)

    report::Json to_json() const;
};

/// Counters the Server owns but the frame reports (totals since boot plus
/// cache state); passed by value into frame() so the hub stays decoupled
/// from serve::Server.
struct ServerVitals {
    std::uint64_t requests = 0;
    std::uint64_t runs = 0;
    std::uint64_t errors = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t connections = 0;  ///< currently open
};

class Telemetry {
public:
    struct Options {
        std::size_t span_ring = 256;    ///< recent-request ring capacity
        double slow_ms = 0.0;           ///< 0 disables slow-request logging
        Logger* logger = nullptr;       ///< not owned; may be null
    };

    explicit Telemetry(Options options);

    /// Monotonic request ids, assigned at parse time.
    std::uint64_t next_request_id() {
        return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /// Fold one finished request into the windows and the span ring; emits
    /// the slow-request log line (full span tree) when ms >= slow_ms.
    void record_request(RequestRecord record);

    /// Cache probe outcome for the windowed hit ratio.
    void record_cache(bool hit);

    std::uint64_t in_flight_runs() const {
        return in_flight_.load(std::memory_order_relaxed);
    }
    void run_begin() { in_flight_.fetch_add(1, std::memory_order_relaxed); }
    void run_end() { in_flight_.fetch_sub(1, std::memory_order_relaxed); }

    /// One "dbsp-telemetry-v1" frame. \p seq is the caller's frame counter
    /// (per watch stream).
    report::Json frame(std::uint64_t seq, const ServerVitals& vitals) const;

    /// The op:"spans" body: newest-first span trees, at most \p limit.
    report::Json spans_json(std::size_t limit) const;

    /// Schema identifier carried by every frame.
    static constexpr const char* kSchema = "dbsp-telemetry-v1";

private:
    report::Json window_json(std::int64_t now_s, unsigned window_s) const;

    Options options_;
    std::uint64_t start_ns_;
    std::atomic<std::uint64_t> next_id_{0};
    std::atomic<std::uint64_t> in_flight_{0};

    report::WindowedCounter requests_;
    report::WindowedCounter errors_;
    report::WindowedCounter cache_hits_;
    report::WindowedCounter cache_misses_;
    report::WindowedHistogram latency_us_;
    /// Slack ratios stored as permille (ratio * 1000) so the log2 buckets
    /// resolve the interesting [0.1, 10] band.
    report::WindowedHistogram hmm_slack_permille_;
    report::WindowedHistogram bt_slack_permille_;

    mutable std::mutex ring_mutex_;
    std::deque<RequestRecord> ring_;  ///< newest at the back

    /// Process-wide hardware counters (inherit=1: opened at construction,
    /// before the worker pool spawns, so child threads count too). Counting
    /// runs from boot; each frame reports the totals so far. Unavailable
    /// groups (containers, DBSP_NO_PERF) degrade to an
    /// {"available":false, "reason":...} section — never an error.
    perf::CounterGroup counters_{perf::CounterGroup::Options{/*inherit=*/true}};
};

/// Count of entries in a /proc/self directory (open fds, task threads);
/// 0 when unreadable. Cheap enough to call once per frame.
std::uint64_t proc_count(const char* dir);

}  // namespace dbsp::telemetry
