/// Tests for the process-wide metrics registry (src/report/metrics.hpp):
/// instrument semantics, log2-histogram bucket edges, reset behaviour, and
/// thread safety of the relaxed-atomic update paths under parallel_for.
///
/// The registry is a process-global shared with every other test in this
/// binary (the simulators publish telemetry as a side effect), so each test
/// uses uniquely named instruments and asserts on deltas, never on absolute
/// registry contents.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "report/metrics.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dbsp;
using report::Histogram;
using report::Registry;

TEST(Metrics, CounterAddAndReset) {
    auto& c = report::metric_counter("test.counter_basic");
    const std::uint64_t before = c.value();
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), before + 42);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
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
    h.reset();
    h.observe(0);       // bucket 0
    h.observe(1);       // bucket 1
    h.observe(3);       // bucket 2 (top of the 2-3 range)
    h.observe(4, 10);   // bucket 3 (bottom of the 4-7 range), weighted
    h.observe(7);       // bucket 3 (top of the 4-7 range)
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(3), 11u);
    EXPECT_EQ(h.bucket(4), 0u);
    EXPECT_EQ(h.total(), 14u);
    EXPECT_EQ(h.populated_buckets(), 4u);
}

TEST(Metrics, HistogramDirectBucketClampsOverflow) {
    auto& h = report::metric_histogram("test.hist_clamp");
    h.reset();
    h.add_to_bucket(12, 5);
    h.add_to_bucket(Histogram::kBuckets + 100, 2);  // clamped to the last bucket
    EXPECT_EQ(h.bucket(12), 5u);
    EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 2u);
    EXPECT_EQ(h.bucket(Histogram::kBuckets + 100), 0u);  // out-of-range read is 0
    EXPECT_EQ(h.total(), 7u);
    EXPECT_EQ(h.populated_buckets(), Histogram::kBuckets);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.populated_buckets(), 0u);
}

TEST(Metrics, ResetValuesKeepsReferencesValid) {
    auto& c = report::metric_counter("test.reset_keeps_refs");
    auto& h = report::metric_histogram("test.reset_keeps_refs_hist");
    c.add(9);
    h.observe(100);
    const std::size_t registered = Registry::global().size();
    Registry::global().reset_values();
    EXPECT_EQ(Registry::global().size(), registered);  // registrations survive
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.total(), 0u);
    c.add(2);  // the old reference still updates the same instrument
    EXPECT_EQ(report::metric_counter("test.reset_keeps_refs").value(), 2u);
}

TEST(Metrics, SnapshotReportsKindsValuesAndSortedNames) {
    auto& c = report::metric_counter("test.snap_counter");
    auto& h = report::metric_histogram("test.snap_hist");
    c.reset();
    h.reset();
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
    EXPECT_EQ(counter->count, 5u);
    EXPECT_EQ(hist->kind, report::MetricValue::Kind::kHistogram);
    EXPECT_EQ(hist->count, 3u);
    ASSERT_EQ(hist->buckets.size(), 4u);  // trimmed to populated_buckets()
    EXPECT_EQ(hist->buckets[3], 3u);
}

TEST(Metrics, ConcurrentUpdatesUnderParallelForLoseNothing) {
    auto& c = report::metric_counter("test.parallel_counter");
    auto& h = report::metric_histogram("test.parallel_hist");
    c.reset();
    h.reset();
    constexpr std::size_t kN = 20000;
    util::parallel_for(
        kN,
        [&](std::size_t i) {
            c.add();
            h.observe(i);
        },
        4);
    EXPECT_EQ(c.value(), kN);
    EXPECT_EQ(h.total(), kN);
    // Cross-check the bucket decomposition: bucket b holds the values with
    // bit_width b, i.e. [2^(b-1), 2^b) for b >= 1 — sizes 1, 1, 2, 4, ...
    EXPECT_EQ(h.bucket(0), 1u);
    std::uint64_t reconstructed = 0;
    for (unsigned b = 0; b < report::Histogram::kBuckets; ++b) reconstructed += h.bucket(b);
    EXPECT_EQ(reconstructed, kN);
    EXPECT_EQ(h.bucket(5), 16u);  // values 16..31
}

TEST(Metrics, ConcurrentRegistrationIsSafe) {
    // Hammer find-or-register from several threads: every thread must get
    // the same instrument for the same name, and all updates must land.
    constexpr std::size_t kN = 1000;
    util::parallel_for(
        kN, [&](std::size_t) { report::metric_counter("test.concurrent_reg").add(); }, 4);
    EXPECT_EQ(report::metric_counter("test.concurrent_reg").value(), kN);
}

}  // namespace
