#pragma once

/// \file server.hpp
/// The dbsp_serve daemon core: a Unix-domain stream-socket server speaking
/// the newline-framed protocol of protocol.hpp. Kept tool-independent so
/// tests can drive it in-process (handle_line for the pure dispatch path, a
/// background serve_forever() thread for full socket round-trips) under the
/// sanitizers.
///
/// Concurrency: one accepting thread (serve_forever) plus one thread per
/// connection; the accepting thread joins each connection thread once it
/// has finished, so a long-lived daemon holds threads only for open
/// connections. Connections pipeline: a client may write many request lines
/// before reading, and replies come back strictly in request order. Each
/// run request executes serially on its connection's thread — parallelism
/// is across connections, never inside one run — and concurrent
/// connections share the ResultCache and CostTableCache.
///
/// Failure containment: every malformed request — unparsable JSON,
/// overdeep/oversized documents, bad specs, degenerate sampling rates —
/// produces a structured {"ok":false,...} reply on the same connection.
/// The daemon only exits on op:"shutdown" or request_stop().

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/result_cache.hpp"
#include "telemetry/logger.hpp"
#include "telemetry/telemetry.hpp"

namespace dbsp::serve {

struct Request;

class Server {
public:
    struct Options {
        std::string socket_path;
        /// ResultCache LRU bound; 0 disables memoization.
        std::size_t cache_entries = 128;
        /// Maximum request-line length; longer lines get a structured error
        /// and the remainder of the line is discarded.
        std::size_t max_request_bytes = 4 << 20;
        /// JSONL event log destination: file path, "-" for stdout, empty =
        /// disabled. Logging is strictly off the reply path (bounded queue +
        /// background writer; overflow drops lines and counts them).
        std::string log_path;
        telemetry::LogLevel log_level = telemetry::LogLevel::kInfo;
        /// Log rotation threshold (0 = never rotate).
        std::size_t log_max_bytes = 64u << 20;
        /// Requests at/above this wall-clock duration log their full span
        /// tree at warn level; 0 disables.
        double slow_ms = 0.0;
        /// Recent-request ring served by op:"spans".
        std::size_t span_ring = 256;
    };

    explicit Server(Options options);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Dispatch one request line to one reply line (no framing, no socket).
    /// For op:"watch" the "line" is the whole stream, frames joined with
    /// '\n'. This is the entire protocol logic; the socket layer only adds
    /// the trailing '\n' per emitted line.
    std::string handle_line(const std::string& line);

    /// Sink for reply lines (no trailing '\n'); returns false when the
    /// client is gone, which aborts any in-progress stream.
    using WriteFn = std::function<bool(const std::string&)>;

    /// Streaming dispatch: every op emits exactly one line except
    /// op:"watch", which emits `count` telemetry frames at `interval_ms`
    /// cadence. Returns false iff \p emit did.
    bool handle_line_stream(const std::string& line, const WriteFn& emit);

    /// False when options requested a log file that could not be opened
    /// (dbsp_serve exits 1 rather than run silently unlogged).
    bool log_ok() const {
        return options_.log_path.empty() || logger_.active();
    }

    /// Bind + listen on options.socket_path (unlinking a stale socket file
    /// first). Returns false with a message on failure.
    bool start(std::string* error);

    /// Accept/serve until op:"shutdown" or request_stop(). Returns 0 on a
    /// clean stop. start() must have succeeded.
    int serve_forever();

    /// Stop the accept loop and shut down open connections (idempotent,
    /// callable from any thread or from a signal-triggered path).
    void request_stop();

    bool stopping() const { return stop_.load(std::memory_order_relaxed); }

    struct Stats {
        std::uint64_t requests = 0;  ///< lines dispatched, all ops
        std::uint64_t runs = 0;      ///< op:"run" requests accepted
        std::uint64_t errors = 0;    ///< structured error replies
        ResultCache::Stats cache;
    };
    Stats stats() const;

private:
    void serve_connection(int fd);
    void track(int fd, bool add);
    /// Join and drop the threads of connections that have closed.
    void reap_connections();
    telemetry::ServerVitals vitals() const;
    bool stream_watch(const Request& req, const WriteFn& emit,
                      telemetry::RequestRecord* rec);

    Options options_;
    ResultCache cache_;
    telemetry::Logger logger_;
    telemetry::Telemetry telemetry_;
    int listen_fd_ = -1;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> runs_{0};
    std::atomic<std::uint64_t> errors_{0};
    /// A connection's thread; `done` is set as the thread's last action.
    struct Connection {
        std::thread thread;
        std::atomic<bool> done{false};
    };
    mutable std::mutex connections_mutex_;
    std::vector<int> connection_fds_;
    std::list<Connection> connections_;  ///< guarded by connections_mutex_
};

}  // namespace dbsp::serve
