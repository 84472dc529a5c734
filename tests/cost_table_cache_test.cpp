#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "model/cost_table.hpp"
#include "model/cost_table_cache.hpp"
#include "util/parallel.hpp"

namespace dbsp::model {
namespace {

TEST(AccessFunctionKey, ClosedFormsDistinguishParameters) {
    EXPECT_EQ(AccessFunction::polynomial(0.5).key(), AccessFunction::polynomial(0.5).key());
    EXPECT_NE(AccessFunction::polynomial(0.5).key(), AccessFunction::polynomial(0.35).key());
    EXPECT_NE(AccessFunction::polynomial(0.5).key(), AccessFunction::logarithmic().key());
    EXPECT_NE(AccessFunction::constant(1.0).key(), AccessFunction::constant(2.0).key());
}

TEST(AccessFunctionKey, CustomsWithSameNameDontAlias) {
    const auto sqrt_fn = [](double x) { return std::sqrt(x + 1.0); };
    const auto cbrt_fn = [](double x) { return std::cbrt(x + 1.0); };
    const auto a = AccessFunction::custom("mystery", sqrt_fn, sqrt_fn);
    const auto b = AccessFunction::custom("mystery", cbrt_fn, cbrt_fn);
    EXPECT_NE(a.key(), b.key());
    // Identical charged behaviour under the same name does alias — by design:
    // the fingerprint is over charged values, not lambda identity.
    const auto c = AccessFunction::custom("mystery", sqrt_fn, sqrt_fn);
    EXPECT_EQ(a.key(), c.key());
}

TEST(CostTableCache, HitsSlicesAndBuilds) {
    CostTableCache& cache = CostTableCache::global();
    cache.clear();
    const auto f = AccessFunction::polynomial(0.45);
    const auto before = cache.stats();

    const auto big = cache.get(f, 4096);
    const auto hit = cache.get(f, 4096);
    const auto small = cache.get(f, 512);
    const auto after = cache.stats();

    EXPECT_EQ(after.builds - before.builds, 1u);
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.slices - before.slices, 1u);
    EXPECT_EQ(big.get(), hit.get());  // exact hits share the object

    // The slice is bit-identical to a fresh build at the smaller capacity.
    const CostTable fresh(f, 512);
    for (std::uint64_t x = 0; x < 512; ++x) {
        EXPECT_EQ(small->cost(x), fresh.cost(x)) << "x=" << x;
    }
    EXPECT_EQ(small->capacity(), 512u);

    // A larger request rebuilds and replaces the cached entry.
    const auto bigger = cache.get(f, 8192);
    EXPECT_EQ(bigger->capacity(), 8192u);
    for (std::uint64_t x = 0; x < 4096; ++x) {
        ASSERT_EQ(bigger->cost(x), big->cost(x)) << "x=" << x;
    }
}

TEST(CostTableCache, DisableInOneWorkerCannotInvalidateConcurrentTables) {
    // Regression guard for the parallel_sweep scenario: one worker calling
    // clear() drops the cache's *own* references, but a table is handed out
    // as shared_ptr<const CostTable>, so every table a concurrent worker
    // already holds (or obtains mid-clear) stays alive and immutable. See the
    // "Lifetime" note in cost_table_cache.hpp.
    CostTableCache& cache = CostTableCache::global();
    cache.clear();
    const auto f = AccessFunction::polynomial(0.43);
    const CostTable reference(f, 1024);
    util::parallel_for(
        64,
        [&](std::size_t i) {
            if (i % 8 == 3) {
                // This worker clears the cache while the others are reading
                // tables obtained from it.
                cache.clear();
                const auto t = cache.get(f, 256);
                if (t->cost(255) != reference.cost(255)) {
                    throw std::logic_error("table obtained after clear() drifted");
                }
                return;
            }
            const auto t = cache.get(f, 1024);
            for (std::uint64_t x = 0; x < t->capacity(); x += 13) {
                if (t->cost(x) != reference.cost(x)) {
                    throw std::logic_error("cached table dropped or drifted");
                }
            }
        },
        8);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> touched(n);
    util::parallel_for(n, [&](std::size_t i) { touched[i].fetch_add(1); }, 4);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1) << i;
}

TEST(ParallelFor, PropagatesExceptions) {
    EXPECT_THROW(
        util::parallel_for(
            100, [](std::size_t i) { if (i == 37) throw std::runtime_error("boom"); }, 4),
        std::runtime_error);
}

TEST(ParallelFor, ConcurrentCacheAccessIsSafe) {
    CostTableCache& cache = CostTableCache::global();
    cache.clear();
    const auto f = AccessFunction::polynomial(0.41);
    const CostTable reference(f, 2048);
    util::parallel_for(
        64,
        [&](std::size_t i) {
            const auto t = cache.get(f, 64 + 32 * (i % 48));
            for (std::uint64_t x = 0; x < t->capacity(); x += 17) {
                if (t->cost(x) != reference.cost(x)) {
                    throw std::logic_error("cache returned a drifting table");
                }
            }
        },
        8);
}

}  // namespace
}  // namespace dbsp::model
