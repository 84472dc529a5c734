#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/bits.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dbsp {
namespace {

TEST(Bits, IsPow2) {
    EXPECT_FALSE(is_pow2(0));
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(2));
    EXPECT_FALSE(is_pow2(3));
    EXPECT_TRUE(is_pow2(1ull << 40));
    EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(Bits, Ilog2) {
    EXPECT_EQ(ilog2(1), 0u);
    EXPECT_EQ(ilog2(2), 1u);
    EXPECT_EQ(ilog2(3), 1u);
    EXPECT_EQ(ilog2(4), 2u);
    EXPECT_EQ(ilog2(1ull << 50), 50u);
}

TEST(Bits, NextPow2) {
    EXPECT_EQ(next_pow2(1), 1u);
    EXPECT_EQ(next_pow2(2), 2u);
    EXPECT_EQ(next_pow2(3), 4u);
    EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Bits, ReverseBits) {
    EXPECT_EQ(reverse_bits(0b001, 3), 0b100u);
    EXPECT_EQ(reverse_bits(0b110, 3), 0b011u);
    EXPECT_EQ(reverse_bits(5, 0), 0u);
    // Involution property.
    for (std::uint64_t x = 0; x < 64; ++x) {
        EXPECT_EQ(reverse_bits(reverse_bits(x, 6), 6), x);
    }
}

TEST(Bits, MortonRoundTrip) {
    for (std::uint32_t r = 0; r < 20; ++r) {
        for (std::uint32_t c = 0; c < 20; ++c) {
            const auto code = morton_encode(r, c);
            const auto rc = morton_decode(code);
            EXPECT_EQ(rc.row, r);
            EXPECT_EQ(rc.col, c);
        }
    }
}

TEST(Bits, MortonQuadrantStructure) {
    // The two top bits of a Morton code over a 2^k x 2^k grid select the
    // quadrant: (row msb << 1) | col msb.
    const std::uint32_t side = 8;
    for (std::uint32_t r = 0; r < side; ++r) {
        for (std::uint32_t c = 0; c < side; ++c) {
            const auto code = morton_encode(r, c);
            const auto quadrant = (code >> 4) & 3;  // 64 cells -> 6 bits
            EXPECT_EQ(quadrant, ((r >> 2) << 1) | (c >> 2));
        }
    }
}

TEST(Bits, Ipow) {
    EXPECT_EQ(ipow(2, 10), 1024u);
    EXPECT_EQ(ipow(3, 0), 1u);
    EXPECT_EQ(ipow(10, 3), 1000u);
}

TEST(Rng, Deterministic) {
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowRange) {
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.next_below(13), 13u);
    }
}

TEST(Rng, NextBelowCoversRange) {
    SplitMix64 rng(7);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i) ++seen[rng.next_below(8)];
    for (int count : seen) EXPECT_GT(count, 300);  // roughly uniform
}

TEST(Rng, NextDoubleUnit) {
    SplitMix64 rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Stats, FitLogLogRecoversExponent) {
    std::vector<double> xs, ys;
    for (double x : {16.0, 64.0, 256.0, 1024.0, 8192.0}) {
        xs.push_back(x);
        ys.push_back(3.0 * std::pow(x, 1.5));
    }
    const auto fit = fit_loglog(xs, ys);
    EXPECT_NEAR(fit.slope, 1.5, 1e-9);
    EXPECT_NEAR(std::exp(fit.intercept), 3.0, 1e-9);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
    EXPECT_NEAR(fit.max_residual, 0.0, 1e-9);  // exact power law: no residual
}

TEST(Stats, FitLogLogMaxResidualIsWorstLogDeviation) {
    // Perfect x^2 line with one point perturbed by a factor of e: the fitted
    // line moves a little, but the worst log-residual must stay near 1 (and
    // strictly positive), and R^2 must drop below 1.
    std::vector<double> xs, ys;
    for (double x : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0}) {
        xs.push_back(x);
        ys.push_back(x * x);
    }
    ys[3] *= std::exp(1.0);
    const auto fit = fit_loglog(xs, ys);
    EXPECT_GT(fit.max_residual, 0.5);
    EXPECT_LT(fit.max_residual, 1.0);  // the fit absorbs part of the bump
    EXPECT_LT(fit.r_squared, 1.0);
    EXPECT_GT(fit.r_squared, 0.9);
}

TEST(Stats, FitLogLogDegeneratesGracefullyOnEqualXs) {
    // All-equal xs make the slope undefined (denominator 0); the fit must
    // return the horizontal line through the mean of log(ys), not NaNs.
    const auto fit = fit_loglog({32.0, 32.0, 32.0}, {2.0, 8.0, 4.0});
    EXPECT_TRUE(std::isfinite(fit.slope));
    EXPECT_TRUE(std::isfinite(fit.intercept));
    EXPECT_TRUE(std::isfinite(fit.r_squared));
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    EXPECT_NEAR(std::exp(fit.intercept), 4.0, 1e-12);  // geomean of ys
    EXPECT_DOUBLE_EQ(fit.r_squared, 0.0);
    EXPECT_DOUBLE_EQ(fit.max_residual, 0.0);  // no line fitted, no residuals

    // Two identical points: same degenerate shape.
    const auto two = fit_loglog({7.0, 7.0}, {5.0, 5.0});
    EXPECT_DOUBLE_EQ(two.slope, 0.0);
    EXPECT_NEAR(std::exp(two.intercept), 5.0, 1e-12);
}

TEST(Stats, MeanAndGeometricMean) {
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(Stats, Spread) {
    EXPECT_DOUBLE_EQ(spread({2.0, 8.0, 4.0}), 4.0);
    EXPECT_DOUBLE_EQ(spread({5.0}), 1.0);
}

TEST(ParseThreadCount, AcceptsOnlyFullPositiveIntegers) {
    // The DBSP_THREADS override must be parsed strictly:
    // "abc" and "4x" used to be treated as unset with no diagnostic.
    EXPECT_EQ(util::parse_thread_count("1"), 1u);
    EXPECT_EQ(util::parse_thread_count("8"), 8u);
    EXPECT_EQ(util::parse_thread_count("64"), 64u);

    EXPECT_EQ(util::parse_thread_count(""), std::nullopt);
    EXPECT_EQ(util::parse_thread_count("0"), std::nullopt);
    EXPECT_EQ(util::parse_thread_count("abc"), std::nullopt);
    EXPECT_EQ(util::parse_thread_count("4x"), std::nullopt);
    EXPECT_EQ(util::parse_thread_count("x4"), std::nullopt);
    EXPECT_EQ(util::parse_thread_count("-2"), std::nullopt);
    EXPECT_EQ(util::parse_thread_count("+4"), std::nullopt);
    EXPECT_EQ(util::parse_thread_count(" 4"), std::nullopt);
    EXPECT_EQ(util::parse_thread_count("4 "), std::nullopt);
    EXPECT_EQ(util::parse_thread_count("0x4"), std::nullopt);
    EXPECT_EQ(util::parse_thread_count("3.5"), std::nullopt);
}

// --- util::parallel_for ----------------------------------------------------

TEST(ParallelFor, CoversEveryIndexOnce) {
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    util::parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
    bool called = false;
    util::parallel_for(0, [&](std::size_t) { called = true; }, 4);
    EXPECT_FALSE(called);
}

TEST(ParallelFor, SerialWhenThreadsIsOne) {
    // threads == 1 starts no thread: the body runs on this thread.
    const auto caller = std::this_thread::get_id();
    util::parallel_for(100, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    }, 1);
}

TEST(ParallelFor, NoWorkerThreadOutlivesTheCall) {
    // Every thread a call starts is joined before it returns. The bodies
    // sleep so that the started threads take part whatever the scheduler
    // does; each records its kernel thread id.
    const pid_t caller = ::gettid();
    std::mutex mutex;
    std::set<pid_t> tids;
    util::parallel_for(64, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::lock_guard<std::mutex> lock(mutex);
        tids.insert(::gettid());
    }, 4);
    tids.erase(caller);
    EXPECT_FALSE(tids.empty()) << "no started thread ran a body";
    // A joined thread's /proc entry can outlast the join by a moment (the
    // kernel wakes the joiner before it unhashes the task), so wait for it
    // to go; a thread left parked in a pool never goes.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (const pid_t tid : tids) {
        const std::filesystem::path task = "/proc/self/task/" + std::to_string(tid);
        while (std::filesystem::exists(task) && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_FALSE(std::filesystem::exists(task)) << "thread " << tid << " outlived the call";
    }
}

TEST(ParallelFor, PropagatesFirstException) {
    EXPECT_THROW(
        util::parallel_for(
            256,
            [&](std::size_t i) {
                if (i == 137) throw std::runtime_error("boom");
            },
            4),
        std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunInline) {
    // A parallel_for inside a parallel_for region must not deadlock or
    // oversubscribe: the inner call runs inline on the worker.
    std::atomic<int> total{0};
    util::parallel_for(
        8,
        [&](std::size_t) {
            util::parallel_for(8, [&](std::size_t) { total.fetch_add(1); }, 4);
        },
        4);
    EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, ParseThreadCountIsStrict) {
    EXPECT_EQ(util::parse_thread_count("4"), std::size_t{4});
    EXPECT_FALSE(util::parse_thread_count("0").has_value());
    EXPECT_FALSE(util::parse_thread_count("4x").has_value());
    EXPECT_FALSE(util::parse_thread_count("").has_value());
    EXPECT_FALSE(util::parse_thread_count("-2").has_value());
}

TEST(Table, RendersAlignedRows) {
    Table t({"n", "cost", "ratio"});
    t.add_row({"16", "123", "1.0"});
    t.add_row_values({1024, 5.5, 0.333333});
    const std::string s = t.str();
    EXPECT_NE(s.find("cost"), std::string::npos);
    EXPECT_NE(s.find("1024"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FmtModes) {
    EXPECT_EQ(Table::fmt(42), "42");
    EXPECT_EQ(Table::fmt(2.5), "2.5000");
    EXPECT_EQ(Table::fmt(12345678.0), "12345678");  // integral: no notation
    EXPECT_NE(Table::fmt(1.234567891e9 + 0.25).find("e"), std::string::npos);
    EXPECT_NE(Table::fmt(0.0001).find("e"), std::string::npos);
}

}  // namespace
}  // namespace dbsp
