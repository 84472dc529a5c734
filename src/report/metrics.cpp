#include "report/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

namespace dbsp::report {

void WindowedCounter::add(std::int64_t now_s, std::uint64_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = slots_[static_cast<std::size_t>(now_s) % kSlots];
    if (slot.epoch != now_s) {
        slot.epoch = now_s;
        slot.count = 0;
    }
    slot.count += n;
}

std::uint64_t WindowedCounter::sum_over(std::int64_t now_s, unsigned window_s) const {
    std::lock_guard<std::mutex> lock(mutex_);
    // The live second is excluded; the ring must hold the window plus it.
    const unsigned w = std::min(window_s, kSlots - 1);
    std::uint64_t sum = 0;
    for (const Slot& slot : slots_) {
        if (slot.epoch >= now_s - static_cast<std::int64_t>(w) && slot.epoch < now_s) {
            sum += slot.count;
        }
    }
    return sum;
}

void WindowedHistogram::observe(std::int64_t now_s, std::uint64_t value,
                                std::uint64_t weight) {
    const unsigned bucket = Histogram::bucket_of(value);
    std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = slots_[static_cast<std::size_t>(now_s) % kSlots];
    if (slot.epoch != now_s) {
        slot.epoch = now_s;
        slot.total = 0;
        slot.buckets.fill(0);
    }
    slot.buckets[bucket] += weight;
    slot.total += weight;
}

WindowedHistogram::Window WindowedHistogram::window_over(std::int64_t now_s,
                                                         unsigned window_s) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const unsigned w = std::min(window_s, kSlots - 1);
    Window out;
    for (const Slot& slot : slots_) {
        if (slot.epoch >= now_s - static_cast<std::int64_t>(w) && slot.epoch < now_s) {
            out.total += slot.total;
            for (unsigned b = 0; b < kBuckets; ++b) out.buckets[b] += slot.buckets[b];
        }
    }
    return out;
}

double WindowedHistogram::bucket_lo(unsigned b) {
    if (b == 0) return 0.0;
    return std::ldexp(1.0, static_cast<int>(b) - 1);
}

double WindowedHistogram::bucket_hi(unsigned b) {
    if (b == 0) return 0.0;
    return std::ldexp(1.0, static_cast<int>(b)) - 1.0;
}

double WindowedHistogram::Window::quantile(double q) const {
    if (total == 0) return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
    if (rank < 1) rank = 1;
    if (rank > total) rank = total;
    std::uint64_t before = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
        const std::uint64_t n = buckets[b];
        if (n == 0) continue;
        if (before + n >= rank) {
            const double lo = bucket_lo(b);
            const double hi = bucket_hi(b);
            const double pos =
                static_cast<double>(rank - before) / static_cast<double>(n);
            return lo + pos * (hi - lo);
        }
        before += n;
    }
    return bucket_hi(kBuckets - 1);  // unreachable when totals are consistent
}

unsigned Histogram::populated_buckets() const {
    unsigned last = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        if (bucket(i) != 0) last = i + 1;
    }
    return last;
}

/// Instruments are stored behind unique_ptr in name-keyed maps: rehashing or
/// rebalancing moves the pointers, never the atomics, so references handed to
/// call sites stay valid forever.
struct Registry::Impl {
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::global() {
    // Leaked intentionally: instrumentation sites in static destructors must
    // never observe a destroyed registry.
    static Registry* registry = new Registry;
    return *registry;
}

Counter& Registry::counter(std::string_view name) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->counters.find(name);
    if (it == impl_->counters.end()) {
        it = impl_->counters.emplace(std::string(name), std::make_unique<Counter>()).first;
    }
    return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->histograms.find(name);
    if (it == impl_->histograms.end()) {
        it = impl_->histograms.emplace(std::string(name), std::make_unique<Histogram>()).first;
    }
    return *it->second;
}

std::vector<MetricValue> Registry::snapshot() const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::vector<MetricValue> out;
    out.reserve(impl_->counters.size() + impl_->histograms.size());
    for (const auto& [name, c] : impl_->counters) {
        MetricValue v;
        v.name = name;
        v.kind = MetricValue::Kind::kCounter;
        v.count = c->value();
        out.push_back(std::move(v));
    }
    for (const auto& [name, h] : impl_->histograms) {
        MetricValue v;
        v.name = name;
        v.kind = MetricValue::Kind::kHistogram;
        v.count = h->total();
        const unsigned n = h->populated_buckets();
        v.buckets.reserve(n);
        for (unsigned i = 0; i < n; ++i) v.buckets.push_back(h->bucket(i));
        out.push_back(std::move(v));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
    return out;
}

}  // namespace dbsp::report
