#pragma once

/// \file parallel.hpp
/// Minimal persistent-pool parallel-for for the benchmark harness: it runs
/// independent (access function, size) sweep points concurrently
/// (bench::parallel_sweep). Parallelism stays across independent runs; no
/// executor uses it inside one run. Splitting a run's supersteps over
/// workers measured slower than serial for the HMM and BT simulators and
/// was removed (EXPERIMENTS.md "Parallel execution").
///
/// The callable is a template parameter (no std::function allocation); a
/// type-erased trampoline hands indices to the pool.

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>

namespace dbsp::util {

/// Strictly parse a thread-count override value: the entire string must be a
/// positive base-10 integer (no sign, no trailing garbage, no empty string).
/// Returns nullopt on any violation. Exposed for unit testing of the
/// DBSP_BENCH_THREADS / DBSP_THREADS handling.
std::optional<std::size_t> parse_thread_count(std::string_view value);

/// Number of worker threads parallel_for uses when `threads == 0`:
/// the value of DBSP_BENCH_THREADS (or DBSP_THREADS) if set and valid per
/// parse_thread_count, otherwise the hardware concurrency (at least 1).
/// An invalid value (e.g. "abc", "4x", "0") is ignored with a one-time
/// warning on stderr.
std::size_t default_threads();

/// Live occupancy snapshot of the persistent worker pool, for the telemetry
/// layer (dbsp-telemetry-v1 "pool" section). `workers` counts threads ever
/// spawned (the pool grows lazily and never shrinks); `busy` counts workers
/// currently inside a job. The caller participating in a job is not counted
/// in either. Values are instantaneous and advisory — never used to make
/// scheduling decisions.
struct PoolStats {
    std::size_t workers = 0;
    std::size_t busy = 0;
};
PoolStats pool_stats();

namespace detail {

/// Type-erased index runner: invoke the callable at `ctx` for index i.
using IndexFn = void (*)(void* ctx, std::size_t i);

/// Dispatch `n` indices to up to `threads` participants (caller + pool
/// workers). Runs inline when threads <= 1, when n == 1, or when already
/// inside a pool worker (nested calls never oversubscribe). The first
/// exception thrown by any index is rethrown on the caller's thread after
/// the job drains.
void parallel_for_impl(std::size_t n, void* ctx, IndexFn fn, std::size_t threads);

}  // namespace detail

/// Run body(i) for i in [0, n) on up to `threads` workers (0 = default).
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
