/// Tests for the process-wide metrics registry (src/report/metrics.hpp):
/// instrument semantics, log2-histogram bucket edges, and thread safety of
/// the relaxed-atomic update paths under parallel_for.
///
/// The registry is a process-global shared with every other test in this
/// binary (the simulators publish telemetry as a side effect), and its
/// instruments only grow. So each test uses uniquely named instruments and
/// asserts on before/after deltas, never on absolute registry contents.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>

#include "report/metrics.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dbsp;
using report::Histogram;
using report::Registry;

/// Every bucket of \p h, for before/after deltas.
std::array<std::uint64_t, Histogram::kBuckets> buckets_of(const Histogram& h) {
    std::array<std::uint64_t, Histogram::kBuckets> b{};
    for (unsigned i = 0; i < Histogram::kBuckets; ++i) b[i] = h.bucket(i);
    return b;
}

TEST(Metrics, CounterAddAccumulates) {
    auto& c = report::metric_counter("test.counter_basic");
    const std::uint64_t before = c.value();
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), before + 42);
}

TEST(Metrics, RegistryFindOrRegisterReturnsSameInstrument) {
    auto& a = report::metric_counter("test.identity");
    auto& b = report::metric_counter("test.identity");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), a.value());
}

TEST(Metrics, HistogramBucketOfIsBitWidth) {
    EXPECT_EQ(Histogram::bucket_of(0), 0u);
    EXPECT_EQ(Histogram::bucket_of(1), 1u);
    EXPECT_EQ(Histogram::bucket_of(2), 2u);
    EXPECT_EQ(Histogram::bucket_of(3), 2u);
    EXPECT_EQ(Histogram::bucket_of(4), 3u);
    EXPECT_EQ(Histogram::bucket_of(7), 3u);
    EXPECT_EQ(Histogram::bucket_of(8), 4u);
    EXPECT_EQ(Histogram::bucket_of((1ull << 32) - 1), 32u);
    EXPECT_EQ(Histogram::bucket_of(1ull << 32), 33u);
    EXPECT_EQ(Histogram::bucket_of(1ull << 63), 64u);
    EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()), 64u);
}

TEST(Metrics, HistogramObservePlacesWeightAtBucketEdges) {
    auto& h = report::metric_histogram("test.hist_edges");
    const auto before = buckets_of(h);
    const std::uint64_t total_before = h.total();
    h.observe(0);       // bucket 0
    h.observe(1);       // bucket 1
    h.observe(3);       // bucket 2 (top of the 2-3 range)
    h.observe(4, 10);   // bucket 3 (bottom of the 4-7 range), weighted
    h.observe(7);       // bucket 3 (top of the 4-7 range)
    EXPECT_EQ(h.bucket(0) - before[0], 1u);
    EXPECT_EQ(h.bucket(1) - before[1], 1u);
    EXPECT_EQ(h.bucket(2) - before[2], 1u);
    EXPECT_EQ(h.bucket(3) - before[3], 11u);
    EXPECT_EQ(h.bucket(4) - before[4], 0u);
    EXPECT_EQ(h.total() - total_before, 14u);
    EXPECT_EQ(h.populated_buckets(), 4u);  // only this test fills the instrument
}

TEST(Metrics, HistogramDirectBucketClampsOverflow) {
    auto& h = report::metric_histogram("test.hist_clamp");
    const auto before = buckets_of(h);
    const std::uint64_t total_before = h.total();
    h.add_to_bucket(12, 5);
    h.add_to_bucket(Histogram::kBuckets + 100, 2);  // clamped to the last bucket
    EXPECT_EQ(h.bucket(12) - before[12], 5u);
    EXPECT_EQ(h.bucket(Histogram::kBuckets - 1) - before[Histogram::kBuckets - 1], 2u);
    EXPECT_EQ(h.bucket(Histogram::kBuckets + 100), 0u);  // out-of-range read is 0
    EXPECT_EQ(h.total() - total_before, 7u);
    EXPECT_EQ(h.populated_buckets(), Histogram::kBuckets);
}

TEST(Metrics, SnapshotReportsKindsValuesAndSortedNames) {
    auto& c = report::metric_counter("test.snap_counter");
    auto& h = report::metric_histogram("test.snap_hist");
    const std::uint64_t counter_before = c.value();
    const std::uint64_t hist_before = h.total();
    const std::uint64_t bucket3_before = h.bucket(3);
    c.add(5);
    h.observe(6, 3);  // bucket 3

    const auto snap = Registry::global().snapshot();
    for (std::size_t i = 1; i < snap.size(); ++i) {
        EXPECT_LT(snap[i - 1].name, snap[i].name) << "snapshot must be name-sorted";
    }
    const report::MetricValue* counter = nullptr;
    const report::MetricValue* hist = nullptr;
    for (const auto& m : snap) {
        if (m.name == "test.snap_counter") counter = &m;
        if (m.name == "test.snap_hist") hist = &m;
    }
    ASSERT_NE(counter, nullptr);
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(counter->kind, report::MetricValue::Kind::kCounter);
    EXPECT_EQ(counter->count - counter_before, 5u);
    EXPECT_EQ(hist->kind, report::MetricValue::Kind::kHistogram);
    EXPECT_EQ(hist->count - hist_before, 3u);
    ASSERT_EQ(hist->buckets.size(), 4u);  // trimmed to populated_buckets()
    EXPECT_EQ(hist->buckets[3] - bucket3_before, 3u);
}

TEST(Metrics, ConcurrentUpdatesUnderParallelForLoseNothing) {
    auto& c = report::metric_counter("test.parallel_counter");
    auto& h = report::metric_histogram("test.parallel_hist");
    const std::uint64_t counter_before = c.value();
    const std::uint64_t total_before = h.total();
    const auto before = buckets_of(h);
    constexpr std::size_t kN = 20000;
    util::parallel_for(
        kN,
        [&](std::size_t i) {
            c.add();
            h.observe(i);
        },
        4);
    EXPECT_EQ(c.value() - counter_before, kN);
    EXPECT_EQ(h.total() - total_before, kN);
    // Cross-check the bucket decomposition: bucket b holds the values with
    // bit_width b, i.e. [2^(b-1), 2^b) for b >= 1 — sizes 1, 1, 2, 4, ...
    EXPECT_EQ(h.bucket(0) - before[0], 1u);
    std::uint64_t reconstructed = 0;
    for (unsigned b = 0; b < Histogram::kBuckets; ++b) reconstructed += h.bucket(b) - before[b];
    EXPECT_EQ(reconstructed, kN);
    EXPECT_EQ(h.bucket(5) - before[5], 16u);  // values 16..31
}

TEST(Metrics, ConcurrentRegistrationIsSafe) {
    // Hammer find-or-register from several threads: every thread must get
    // the same instrument for the same name, and all updates must land.
    constexpr std::size_t kN = 1000;
    const std::uint64_t before = report::metric_counter("test.concurrent_reg").value();
    util::parallel_for(
        kN, [&](std::size_t) { report::metric_counter("test.concurrent_reg").add(); }, 4);
    EXPECT_EQ(report::metric_counter("test.concurrent_reg").value() - before, kN);
}

}  // namespace
