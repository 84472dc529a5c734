#pragma once

/// \file parallel.hpp
/// Minimal fork-join parallel-for for the benchmark harness: it runs
/// independent (access function, size) sweep points concurrently
/// (bench::parallel_sweep). Parallelism stays across independent runs; no
/// executor uses it inside one run. Splitting a run's supersteps over
/// workers measured slower than serial for the HMM and BT simulators and
/// was removed (EXPERIMENTS.md "Parallel execution").
///
/// Every call starts its own threads and joins them before it returns, so
/// no thread outlives a call. A full experiment sweep makes 16 calls, and
/// starting and joining three threads costs tens of microseconds, so a
/// resident pool would save under a millisecond per sweep
/// (EXPERIMENTS.md "Harness performance").
///
/// The callable is a template parameter (no std::function allocation); a
/// type-erased trampoline hands indices to the threads.

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>

namespace dbsp::util {

/// Strictly parse a thread-count override value: the entire string must be a
/// positive base-10 integer (no sign, no trailing garbage, no empty string).
/// Returns nullopt on any violation. Exposed for unit testing of the
/// DBSP_THREADS handling.
std::optional<std::size_t> parse_thread_count(std::string_view value);

/// Number of threads parallel_for uses when `threads == 0`: the value of
/// DBSP_THREADS if set and valid per parse_thread_count, otherwise the
/// hardware concurrency (at least 1). An invalid value (e.g. "abc", "4x",
/// "0") is ignored with a one-time warning on stderr.
std::size_t default_threads();

namespace detail {

/// Type-erased index runner: invoke the callable at `ctx` for index i.
using IndexFn = void (*)(void* ctx, std::size_t i);

/// Run `n` indices on min(threads, n) participants: the caller plus threads
/// started for this call and joined before it returns. Runs inline when
/// threads <= 1, when n == 1, or when already inside a parallel_for body
/// (nested calls never oversubscribe). The first exception thrown by any
/// index is rethrown on the caller's thread after every index has run.
void parallel_for_impl(std::size_t n, void* ctx, IndexFn fn, std::size_t threads);

}  // namespace detail

/// Run body(i) for i in [0, n) on up to `threads` threads (0 = default).
/// Indices are handed out through an atomic counter, so the assignment of
/// indices to threads is dynamic but every index runs exactly once.
template <typename F>
void parallel_for(std::size_t n, F&& body, std::size_t threads = 0) {
    using Fn = std::remove_reference_t<F>;
    detail::parallel_for_impl(
        n, const_cast<std::remove_const_t<Fn>*>(std::addressof(body)),
        [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); }, threads);
}

}  // namespace dbsp::util
