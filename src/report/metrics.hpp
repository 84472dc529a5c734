#pragma once

/// \file metrics.hpp
/// Process-wide metrics registry: named counters and log-bucketed
/// histograms with lock-free (relaxed-atomic) update paths. The simulators,
/// the machines' bulk operations, the cost-table cache and the serve daemon
/// all publish always-on operational telemetry here; bench binaries
/// and dbsp_report snapshot the registry into the "metrics" section of their
/// JSON artifacts.
///
/// Cost discipline (the bench_micro <=2% budget): instruments are updated at
/// *operation* granularity, never per word — one relaxed atomic add per bulk
/// range op, per message-delivery batch, per superstep, per cache probe. The
/// innermost per-word read()/write() paths carry no metrics hook at all, for
/// the same reason they carry no trace hook (see hmm::Machine). Registration
/// (name lookup) happens once per call site through a function-local static
/// reference, so the hot path never touches the registry mutex.
///
/// Instruments are never deallocated once registered, so the references call
/// sites hold stay valid for the process lifetime.
///
/// Windowed instruments (WindowedCounter / WindowedHistogram) add the time
/// dimension the monotonic registry lacks: a ring of per-second slots over
/// which the telemetry layer computes rolling rates (QPS), ratios and
/// bucket-interpolated quantiles for the 1s/10s/60s windows of the
/// dbsp-telemetry-v2 frames. Time enters as an explicit integer epoch second
/// supplied by the caller (steady-clock seconds in production, synthetic in
/// tests) — the instruments themselves never read a clock, so window
/// rollover is unit-testable without sleeping.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dbsp::report {

/// Monotonic event count.
class Counter {
public:
    void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Log2-bucketed histogram of nonnegative integer samples. Bucket i counts
/// samples whose bit_width is i: bucket 0 holds the value 0, bucket 1 holds
/// 1, bucket 2 holds 2-3, bucket 3 holds 4-7, ... bucket 64 holds the top
/// half of the uint64 range. Also usable as a direct-indexed bucket array
/// (add_to_bucket) for quantities that already come with a level, e.g.
/// per-memory-level words touched.
class Histogram {
public:
    static constexpr unsigned kBuckets = 65;

    void observe(std::uint64_t value, std::uint64_t weight = 1) {
        add_to_bucket(bucket_of(value), weight);
    }

    /// Add \p weight directly to \p bucket (clamped to the last bucket).
    void add_to_bucket(unsigned bucket, std::uint64_t weight = 1) {
        if (bucket >= kBuckets) bucket = kBuckets - 1;
        buckets_[bucket].fetch_add(weight, std::memory_order_relaxed);
        total_.fetch_add(weight, std::memory_order_relaxed);
    }

    static unsigned bucket_of(std::uint64_t value) {
        unsigned w = 0;
        while (value != 0) {
            ++w;
            value >>= 1;
        }
        return w;
    }

    std::uint64_t bucket(unsigned i) const {
        return i < kBuckets ? buckets_[i].load(std::memory_order_relaxed) : 0;
    }
    std::uint64_t total() const { return total_.load(std::memory_order_relaxed); }

    /// Index of the last non-empty bucket plus one (0 when empty).
    unsigned populated_buckets() const;

private:
    std::atomic<std::uint64_t> buckets_[kBuckets]{};
    std::atomic<std::uint64_t> total_{0};
};

/// Sliding-window event counter: a ring of per-second slots. A window query
/// covers the last `window_s` *completed* seconds — epochs in
/// [now_s - window_s, now_s - 1] — so a rate never includes the partial
/// current second (which would systematically undercount). Slots whose epoch
/// has fallen out of the ring are lazily reclaimed on the next add() that
/// lands on them; sum_over() ignores stale epochs, so an idle window decays
/// to zero without any background sweeper.
///
/// Thread-safe via a per-instrument mutex: updates happen at request
/// granularity (never per word), so contention is negligible and the
/// concurrent record-vs-snapshot path is TSAN-clean by construction.
class WindowedCounter {
public:
    /// Ring capacity in seconds; must exceed the largest window queried
    /// (60s) plus the live second.
    static constexpr unsigned kSlots = 64;

    void add(std::int64_t now_s, std::uint64_t n = 1);

    /// Total events in the last \p window_s completed seconds.
    std::uint64_t sum_over(std::int64_t now_s, unsigned window_s) const;

private:
    struct Slot {
        std::int64_t epoch = -1;  ///< second this slot currently counts
        std::uint64_t count = 0;
    };
    mutable std::mutex mutex_;
    std::array<Slot, kSlots> slots_{};
};

/// Sliding-window log2 histogram: per-second slots of Histogram-compatible
/// buckets (same bucket_of law), merged over a window into a snapshot that
/// yields rolling bucket-interpolated quantiles. Window semantics match
/// WindowedCounter: the last `window_s` completed seconds.
class WindowedHistogram {
public:
    static constexpr unsigned kSlots = 64;
    static constexpr unsigned kBuckets = Histogram::kBuckets;

    void observe(std::int64_t now_s, std::uint64_t value, std::uint64_t weight = 1);

    /// Merged window view. quantile() is deterministic: rank
    /// r = clamp(ceil(q * total), 1, total); within the containing bucket
    /// [lo, hi] the estimate interpolates linearly by rank position —
    /// lo + (r - rank_before) / bucket_count * (hi - lo) — so a bucket
    /// holding one sample reports its lower... upper bound exactly at the
    /// matching rank, and an empty window reports 0.
    struct Window {
        std::uint64_t total = 0;
        std::array<std::uint64_t, kBuckets> buckets{};

        double quantile(double q) const;
    };
    Window window_over(std::int64_t now_s, unsigned window_s) const;

    /// Inclusive value bounds of bucket \p b under Histogram::bucket_of:
    /// bucket 0 = [0,0], bucket b>=1 = [2^(b-1), 2^b - 1].
    static double bucket_lo(unsigned b);
    static double bucket_hi(unsigned b);

private:
    struct Slot {
        std::int64_t epoch = -1;
        std::uint64_t total = 0;
        std::array<std::uint64_t, kBuckets> buckets{};
    };
    mutable std::mutex mutex_;
    std::array<Slot, kSlots> slots_{};
};

/// One registered instrument (snapshot view).
struct MetricValue {
    enum class Kind { kCounter, kHistogram };
    std::string name;
    Kind kind;
    std::uint64_t count = 0;                ///< counter value / histogram total
    std::vector<std::uint64_t> buckets;     ///< histogram buckets, trimmed
};

class Registry {
public:
    /// The process-wide registry used by all built-in instrumentation.
    static Registry& global();

    /// Find-or-register. References stay valid for the process lifetime.
    Counter& counter(std::string_view name);
    Histogram& histogram(std::string_view name);

    /// Ordered (by name) snapshot of every registered instrument.
    std::vector<MetricValue> snapshot() const;

private:
    struct Impl;
    Registry();
    ~Registry() = delete;  ///< global() leaks its one instance on purpose
    Impl* impl_;
};

/// Call-site helpers: resolve once, then update lock-free.
///   static auto& c = report::metric_counter("hmm.range_ops");
inline Counter& metric_counter(std::string_view name) {
    return Registry::global().counter(name);
}
inline Histogram& metric_histogram(std::string_view name) {
    return Registry::global().histogram(name);
}

}  // namespace dbsp::report
