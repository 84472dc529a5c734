#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "report/experiment.hpp"
#include "report/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/runner.hpp"
#include "telemetry/span.hpp"

namespace dbsp::serve {

namespace {

report::Counter& requests_metric() {
    static auto& c = report::metric_counter("serve.requests");
    return c;
}
report::Counter& errors_metric() {
    static auto& c = report::metric_counter("serve.errors");
    return c;
}

const char* op_name(Request::Op op) {
    switch (op) {
        case Request::Op::kRun: return "run";
        case Request::Op::kMetrics: return "metrics";
        case Request::Op::kStats: return "stats";
        case Request::Op::kPing: return "ping";
        case Request::Op::kShutdown: return "shutdown";
        case Request::Op::kWatch: return "watch";
        case Request::Op::kSpans: return "spans";
    }
    return "unknown";
}

telemetry::Logger::Options logger_options(const Server::Options& o) {
    telemetry::Logger::Options lo;
    lo.path = o.log_path;
    lo.level = o.log_level;
    lo.max_bytes = o.log_max_bytes;
    return lo;
}

telemetry::Telemetry::Options telemetry_options(const Server::Options& o,
                                                telemetry::Logger* logger) {
    telemetry::Telemetry::Options to;
    to.span_ring = o.span_ring;
    to.slow_ms = o.slow_ms;
    to.logger = logger;
    return to;
}

/// send() the whole buffer, riding out EINTR and short writes. MSG_NOSIGNAL:
/// a client that disconnects mid-reply must surface as EPIPE here, not as a
/// process-killing SIGPIPE.
bool write_all(int fd, const char* data, std::size_t n) {
    while (n > 0) {
        const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data += static_cast<std::size_t>(w);
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

}  // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      cache_(options_.cache_entries),
      logger_(logger_options(options_)),
      telemetry_(telemetry_options(options_, &logger_)) {}

Server::~Server() {
    request_stop();
    for (Connection& c : connections_) {
        if (c.thread.joinable()) c.thread.join();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(options_.socket_path.c_str());
    }
}

std::string Server::handle_line(const std::string& line) {
    std::string joined;
    handle_line_stream(line, [&joined](const std::string& reply) {
        if (!joined.empty()) joined += '\n';
        joined += reply;
        return true;
    });
    return joined;
}

bool Server::handle_line_stream(const std::string& line, const WriteFn& emit) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    requests_metric().add();

    // The span tree and the request record are observation only: every
    // reply byte below is computed exactly as before telemetry existed
    // (regression-tested byte identity for run results).
    telemetry::SpanBuilder span;
    telemetry::RequestRecord rec;
    rec.id = telemetry_.next_request_id();
    rec.bytes_in = line.size();

    bool alive = true;
    const auto send = [&](const std::string& reply) {
        span.begin("reply-write");
        alive = emit(reply);
        span.end();
        rec.bytes_out += reply.size() + 1;  // + framing newline
        return alive;
    };
    const auto finish = [&] {
        rec.root = span.finish();
        rec.ms = rec.root.ms();
        if (logger_.enabled(telemetry::LogLevel::kDebug)) {
            report::Json fields = report::Json::object();
            fields.set("id", rec.id);
            fields.set("op", rec.op);
            fields.set("ok", rec.ok);
            fields.set("ms", rec.ms);
            fields.set("bytes_out", rec.bytes_out);
            logger_.log(telemetry::LogLevel::kDebug, "request", std::move(fields));
        }
        telemetry_.record_request(std::move(rec));
        return alive;
    };

    span.begin("parse");
    Request req;
    std::string error;
    const bool parsed = parse_request(line, options_.max_request_bytes, &req, &error);
    span.end();

    if (!parsed) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        errors_metric().add();
        rec.op = "error";
        rec.ok = false;
        if (logger_.enabled(telemetry::LogLevel::kInfo)) {
            report::Json fields = report::Json::object();
            fields.set("id", rec.id);
            fields.set("error", error);
            logger_.log(telemetry::LogLevel::kInfo, "bad-request", std::move(fields));
        }
        send(error_reply(error));
        return finish();
    }

    rec.op = op_name(req.op);

    switch (req.op) {
        case Request::Op::kPing: {
            report::Json pong = report::Json::object();
            pong.set("ok", true);
            pong.set("pong", true);
            send(pong.dump_compact());
            return finish();
        }
        case Request::Op::kShutdown: {
            if (logger_.enabled(telemetry::LogLevel::kInfo)) {
                report::Json fields = report::Json::object();
                fields.set("id", rec.id);
                logger_.log(telemetry::LogLevel::kInfo, "shutdown", std::move(fields));
            }
            request_stop();
            report::Json bye = report::Json::object();
            bye.set("ok", true);
            bye.set("shutdown", true);
            send(bye.dump_compact());
            return finish();
        }
        case Request::Op::kMetrics:
            // Live registry snapshot. Machines flush their telemetry before
            // each run reply returns (publish_metrics at destruction inside
            // run_to_json), so the snapshot equals the sum of all completed
            // requests' counts.
            send(object_reply("metrics", report::metrics_to_json()));
            return finish();
        case Request::Op::kStats: {
            const Stats s = stats();
            report::Json body = report::Json::object();
            body.set("requests", s.requests);
            body.set("runs", s.runs);
            body.set("errors", s.errors);
            report::Json cache = report::Json::object();
            cache.set("hits", s.cache.hits);
            cache.set("misses", s.cache.misses);
            cache.set("evictions", s.cache.evictions);
            cache.set("entries", s.cache.entries);
            body.set("cache", std::move(cache));
            send(object_reply("stats", body));
            return finish();
        }
        case Request::Op::kWatch:
            alive = stream_watch(req, emit, &rec);
            return finish();
        case Request::Op::kSpans:
            send(object_reply("spans", telemetry_.spans_json(req.limit)));
            return finish();
        case Request::Op::kRun:
            break;
    }

    runs_.fetch_add(1, std::memory_order_relaxed);

    span.begin("cache-probe");
    const std::string key = fingerprint(req.spec, req.options);
    auto cached = cache_.get(key);
    span.end();
    telemetry_.record_cache(cached.has_value());
    rec.cached = cached.has_value();

    if (cached.has_value()) {
        send(run_reply(*cached, /*cached=*/true));
        return finish();
    }

    RunObservation obs;
    telemetry::Span legs;  // receives the executor leg spans
    obs.span = &legs;
    obs.t0_ns = span.t0_ns();
    telemetry_.run_begin();
    span.begin("run");
    const std::string result = run_to_json(req.spec, req.options, &obs);
    telemetry::Span& run_span = span.end();
    run_span.children = std::move(legs.children);
    telemetry_.run_end();
    if (obs.thm5_bound > 0.0) rec.hmm_slack = obs.hmm_cost / obs.thm5_bound;
    if (obs.thm12_bound > 0.0) rec.bt_slack = obs.bt_cost / obs.thm12_bound;

    cache_.put(key, result);
    send(run_reply(result, /*cached=*/false));
    return finish();
}

bool Server::stream_watch(const Request& req, const WriteFn& emit,
                          telemetry::RequestRecord* rec) {
    for (std::uint64_t i = 0; i < req.count; ++i) {
        if (i > 0) {
            // Sleep in short stop-aware naps so op:"shutdown" never waits a
            // full interval behind a parked watch stream.
            std::uint64_t remaining = req.interval_ms;
            while (remaining > 0 && !stop_.load(std::memory_order_relaxed)) {
                const std::uint64_t nap = std::min<std::uint64_t>(remaining, 50);
                std::this_thread::sleep_for(std::chrono::milliseconds(nap));
                remaining -= nap;
            }
        }
        if (stop_.load(std::memory_order_relaxed)) break;
        const std::string frame = telemetry_.frame(i, vitals()).dump_compact();
        rec->bytes_out += frame.size() + 1;
        if (!emit(frame)) return false;
    }
    return true;
}

telemetry::ServerVitals Server::vitals() const {
    telemetry::ServerVitals v;
    v.requests = requests_.load(std::memory_order_relaxed);
    v.runs = runs_.load(std::memory_order_relaxed);
    v.errors = errors_.load(std::memory_order_relaxed);
    const ResultCache::Stats cs = cache_.stats();
    v.cache_hits = cs.hits;
    v.cache_misses = cs.misses;
    v.cache_entries = cs.entries;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        v.connections = connection_fds_.size();
    }
    return v;
}

bool Server::start(std::string* error) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.empty() ||
        options_.socket_path.size() >= sizeof(addr.sun_path)) {
        if (error != nullptr) *error = "invalid socket path";
        return false;
    }
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        if (error != nullptr) *error = std::strerror(errno);
        return false;
    }
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(listen_fd_, 64) < 0) {
        if (error != nullptr) *error = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    return true;
}

int Server::serve_forever() {
    while (!stop_.load(std::memory_order_relaxed)) {
        reap_connections();
        pollfd pfd{listen_fd_, POLLIN, 0};
        // The timeout bounds how long a stop request waits for the loop to
        // notice; it is not a request deadline.
        const int ready = ::poll(&pfd, 1, 100);
        if (ready < 0 && errno != EINTR) break;
        if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) continue;
        track(fd, /*add=*/true);
        std::lock_guard<std::mutex> lock(connections_mutex_);
        Connection& c = connections_.emplace_back();
        c.thread = std::thread([this, fd, &c] {
            serve_connection(fd);
            c.done.store(true, std::memory_order_release);
        });
    }
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (Connection& c : connections_) {
        if (c.thread.joinable()) c.thread.join();
    }
    connections_.clear();
    return 0;
}

void Server::reap_connections() {
    // A thread whose `done` is set has nothing left to run but its return,
    // so these joins do not wait on client traffic.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
        if (it->done.load(std::memory_order_acquire)) {
            it->thread.join();
            it = connections_.erase(it);
        } else {
            ++it;
        }
    }
}

void Server::request_stop() { stop_.store(true, std::memory_order_relaxed); }

void Server::serve_connection(int fd) {
    // Connection-lifecycle diagnostics go through the structured logger
    // (level-filtered, atomic lines) instead of raw stderr, which
    // interleaved fragments under concurrent connections.
    if (logger_.enabled(telemetry::LogLevel::kDebug)) {
        report::Json fields = report::Json::object();
        fields.set("fd", static_cast<std::uint64_t>(fd));
        logger_.log(telemetry::LogLevel::kDebug, "connection-open", std::move(fields));
    }
    const auto emit = [fd](const std::string& reply) {
        const std::string framed = reply + "\n";
        return write_all(fd, framed.data(), framed.size());
    };
    // On the stack: allocating it on the heap as each connection thread starts
    // raised the process's VmSize under connection churn (more malloc arenas,
    // 64 MiB each).
    char chunk[64 << 10];
    std::string buffer;  // the unanswered partial line; holds no newline
    // A line longer than max_request_bytes is answered with one structured
    // error and then discarded up to its newline, so the connection stays
    // usable (oversize_ drops the bytes, not the client). The discarded bytes
    // are dropped read by read, so a client streaming without a newline
    // cannot grow the buffer past one read.
    bool discarding = false;
    while (!stop_.load(std::memory_order_relaxed)) {
        const ssize_t r = ::read(fd, chunk, sizeof chunk);
        if (r < 0 && errno == EINTR) continue;
        if (r <= 0) break;
        std::size_t from = buffer.size();  // earlier bytes hold no newline
        buffer.append(chunk, static_cast<std::size_t>(r));
        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = buffer.find('\n', from);
            if (nl == std::string::npos) break;
            if (discarding) {
                discarding = false;
            } else if (!handle_line_stream(buffer.substr(start, nl - start), emit)) {
                start = buffer.size();
                break;
            }
            start = from = nl + 1;
        }
        buffer.erase(0, discarding ? buffer.size() : start);
        if (!discarding && buffer.size() > options_.max_request_bytes) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            errors_metric().add();
            if (logger_.enabled(telemetry::LogLevel::kWarn)) {
                report::Json fields = report::Json::object();
                fields.set("fd", static_cast<std::uint64_t>(fd));
                fields.set("buffered_bytes", static_cast<std::uint64_t>(buffer.size()));
                logger_.log(telemetry::LogLevel::kWarn, "oversize-request",
                            std::move(fields));
            }
            const std::string reply = error_reply("request line exceeds size limit") + "\n";
            if (!write_all(fd, reply.data(), reply.size())) break;
            buffer.clear();
            discarding = true;
        }
    }
    ::close(fd);
    track(fd, /*add=*/false);
    if (logger_.enabled(telemetry::LogLevel::kDebug)) {
        report::Json fields = report::Json::object();
        fields.set("fd", static_cast<std::uint64_t>(fd));
        logger_.log(telemetry::LogLevel::kDebug, "connection-close", std::move(fields));
    }
}

void Server::track(int fd, bool add) {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (add) {
        connection_fds_.push_back(fd);
    } else {
        connection_fds_.erase(
            std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
            connection_fds_.end());
    }
}

Server::Stats Server::stats() const {
    Stats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.runs = runs_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    s.cache = cache_.stats();
    return s;
}

}  // namespace dbsp::serve
