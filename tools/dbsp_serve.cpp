/// dbsp_serve — simulation-as-a-service daemon.
///
/// Listens on a Unix-domain stream socket for newline-framed JSON requests
/// (see src/serve/protocol.hpp), runs `dbsp-spec v1` programs through the
/// D-BSP/HMM/BT executors on the connection's thread, and replies with
/// deterministic "dbsp-serve-result-v1" documents. Results are memoized in
/// an LRU cache keyed by spec fingerprint; op:"metrics" serves a live
/// registry snapshot; op:"shutdown" stops the daemon cleanly.
///
/// Usage:
///   dbsp_serve --socket PATH [--threads N] [--cache N] [--max-request-bytes N]
///              [--log FILE|-] [--log-level debug|info|warn|error]
///              [--log-max-bytes N] [--slow-ms MS] [--span-ring N] [--version]
///
/// --threads N is accepted (strictly parsed) and ignored: every run is
/// serial. Kept only because benchmark/src/serve_mix.cpp passes it.
///
/// Observability: --log enables the structured JSONL event log
/// (bounded queue, background writer, size-based rotation to FILE.1);
/// --slow-ms logs the full span tree of any request at/above the threshold;
/// op:"watch" streams "dbsp-telemetry-v2" frames and op:"spans" serves the
/// recent-request ring (see tools/dbsp_top).
///
/// Example session (socat or any line client):
///   {"op":"ping"}
///   {"op":"run","spec":"dbsp-spec v1\nv 4\nB 1\nsteps 1\nlabels 0\nend\n"}
///   {"op":"shutdown"}
///
/// Exit status: 0 on clean shutdown (op:"shutdown" or SIGINT/SIGTERM),
/// 2 on bad flags, 1 when the socket cannot be created.

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <string>

#include "serve/server.hpp"
#include "telemetry/logger.hpp"
#include "cli.hpp"

namespace {

namespace tools = dbsp::tools;

constexpr const char* kTool = "dbsp_serve";

dbsp::serve::Server* g_server = nullptr;

void handle_signal(int) {
    if (g_server != nullptr) g_server->request_stop();
}

[[noreturn]] void usage(const char* self) {
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--threads N] [--cache N]\n"
                 "          [--max-request-bytes N] [--log FILE|-]\n"
                 "          [--log-level debug|info|warn|error] [--log-max-bytes N]\n"
                 "          [--slow-ms MS] [--span-ring N] [--version]\n",
                 self);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    if (dbsp::tools::handle_version_flag(argc, argv, kTool)) return 0;
    dbsp::serve::Server::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--socket") {
            options.socket_path = next();
        } else if (arg == "--threads") {
            // Inert; see the file comment.
            (void)tools::parse_u64(kTool, "--threads", next());
        } else if (arg == "--cache") {
            options.cache_entries = tools::parse_u64(kTool, "--cache", next());
        } else if (arg == "--max-request-bytes") {
            options.max_request_bytes =
                tools::parse_u64(kTool, "--max-request-bytes", next());
            if (options.max_request_bytes == 0) {
                tools::bad_arg(kTool, "--max-request-bytes", "0", "a positive byte count");
            }
        } else if (arg == "--log") {
            options.log_path = next();
        } else if (arg == "--log-level") {
            const char* value = next();
            const auto level = dbsp::telemetry::parse_level(value);
            if (!level.has_value()) {
                tools::bad_arg(kTool, "--log-level", value, "debug, info, warn, or error");
            }
            options.log_level = *level;
        } else if (arg == "--log-max-bytes") {
            options.log_max_bytes = tools::parse_u64(kTool, "--log-max-bytes", next());
        } else if (arg == "--slow-ms") {
            const char* value = next();
            options.slow_ms = tools::parse_f64(kTool, "--slow-ms", value);
            if (options.slow_ms < 0.0) {
                tools::bad_arg(kTool, "--slow-ms", value, "a nonnegative number");
            }
        } else if (arg == "--span-ring") {
            options.span_ring = tools::parse_u64(kTool, "--span-ring", next());
            if (options.span_ring == 0) {
                tools::bad_arg(kTool, "--span-ring", "0", "a positive ring size");
            }
        } else {
            usage(argv[0]);
        }
    }
    if (options.socket_path.empty()) usage(argv[0]);

    dbsp::serve::Server server(options);
    if (!server.log_ok()) {
        std::fprintf(stderr, "dbsp_serve: cannot open log file \"%s\"\n",
                     options.log_path.c_str());
        return 1;
    }
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "dbsp_serve: cannot listen on \"%s\": %s\n",
                     options.socket_path.c_str(), error.c_str());
        return 1;
    }

    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    std::printf("dbsp_serve: listening on %s\n", options.socket_path.c_str());
    std::fflush(stdout);
    const int rc = server.serve_forever();
    const auto stats = server.stats();
    std::printf("dbsp_serve: clean shutdown after %llu requests "
                "(%llu runs, %llu errors, cache %llu/%llu hits)\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.runs),
                static_cast<unsigned long long>(stats.errors),
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.hits + stats.cache.misses));
    g_server = nullptr;
    return rc;
}
