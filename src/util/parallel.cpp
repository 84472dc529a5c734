#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dbsp::util {

std::optional<std::size_t> parse_thread_count(std::string_view value) {
    std::size_t n = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, n, 10);
    if (ec != std::errc{} || ptr != end || n == 0) return std::nullopt;
    return n;
}

std::size_t default_threads() {
    if (const char* env = std::getenv("DBSP_THREADS")) {
        if (const auto n = parse_thread_count(env)) return *n;
        static std::once_flag warned;
        std::call_once(warned, [env] {
            std::fprintf(stderr,
                         "dbsp: warning: ignoring DBSP_THREADS=\"%s\" (expected a "
                         "positive integer); using hardware concurrency\n",
                         env);
        });
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace {

/// Set while a thread runs parallel_for bodies: a started thread for its
/// whole life, the caller for the duration of its call. Nested calls from
/// inside a body run inline, so they never oversubscribe.
thread_local bool t_in_parallel_region = false;

}  // namespace

namespace detail {

void parallel_for_impl(std::size_t n, void* ctx, IndexFn fn, std::size_t threads) {
    if (threads == 0) threads = default_threads();
    threads = std::min(threads, n);
    if (threads <= 1 || t_in_parallel_region) {
        for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
        return;
    }

    // Claim and run indices until the counter is exhausted. The first
    // exception is kept; later indices still run, so every index runs.
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    auto drain = [&] {
        t_in_parallel_region = true;
        while (true) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            try {
                fn(ctx, i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error) error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    try {
        while (helpers.size() < threads - 1) helpers.emplace_back(drain);
    } catch (const std::exception&) {
        // A thread failed to start (std::system_error, or bad_alloc for its
        // state): the threads that did start and this one finish the call.
    }
    drain();
    t_in_parallel_region = false;
    for (std::thread& helper : helpers) helper.join();
    if (error) std::rethrow_exception(error);
}

}  // namespace detail

}  // namespace dbsp::util
